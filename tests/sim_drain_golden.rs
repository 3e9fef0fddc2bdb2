//! Pinned SimReports for the pending-queue drain paths the repo
//! benchmark does not reach: priority preemption, whose victims are
//! re-queued in the middle of a drain pass; a drain-failure limit that
//! binds; fault plans that re-queue evicted tasks; and the CBS
//! `QuotaScheduler`, under faults and with preemption on.
//!
//! `sim_reports_are_pinned` in `control_loop_golden.rs` covers only
//! unsaturated runs with preemption off, and `engine_equivalence`
//! compares two event loops that share one drain, so neither can catch
//! a change to the drain itself. Every digest here was generated before
//! the drain kept per-shape failure stamps and walked the pending map in
//! place; a change that means to keep placements must leave them all
//! unmoved. The failure message prints the new values.

use std::cell::RefCell;
use std::rc::Rc;

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::controllers::{CbsController, QuotaScheduler, QuotaState};
use harmony::pipeline::{run_variant_with_faults, Variant};
use harmony::HarmonyConfig;
use harmony_model::{EnergyPrice, MachineCatalog, SimDuration};
use harmony_sim::{FaultPlan, FaultRecordKind, FirstFit, SimReport, Simulation, SimulationConfig};
use harmony_trace::{Trace, TraceConfig, TraceGenerator};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

fn digest(report: &SimReport) -> String {
    format!("{:016x}", fnv1a64(serde_json::to_string(report).unwrap().as_bytes()))
}

fn trace() -> Trace {
    TraceGenerator::new(TraceConfig::small().with_span(SimDuration::from_hours(1.0)).with_seed(7))
        .generate()
}

/// A 1/800th of Table II: small enough that the trace saturates it.
fn catalog() -> MachineCatalog {
    MachineCatalog::table2().scaled(800)
}

fn conserved(report: &SimReport, trace: &Trace) -> bool {
    report.tasks_completed
        + report.tasks_running_at_end
        + report.tasks_pending_at_end
        + report.tasks_unschedulable
        + report.tasks_failed
        == trace.len()
}

fn fault_evictions(report: &SimReport) -> usize {
    report
        .faults
        .iter()
        .map(|f| match f.kind {
            FaultRecordKind::MachineCrash { evicted, .. }
            | FaultRecordKind::TaskEviction { evicted, .. }
            | FaultRecordKind::SpotEviction { evicted, .. } => evicted,
            _ => 0,
        })
        .sum()
}

fn first_fit(trace: &Trace, config: SimulationConfig) -> SimReport {
    let report = Simulation::new(config.all_machines_on(), trace, Box::new(FirstFit)).run();
    assert!(conserved(&report, trace));
    assert!(report.tasks_pending_at_end > 0, "the cluster must saturate");
    report
}

fn harmony_config() -> HarmonyConfig {
    HarmonyConfig {
        control_period: SimDuration::from_mins(15.0),
        horizon: 2,
        ..Default::default()
    }
}

fn classifier_config() -> ClassifierConfig {
    ClassifierConfig { k_per_group: Some([3, 3, 3]), ..Default::default() }
}

#[test]
fn first_fit_drain_paths_are_pinned() {
    let trace = trace();
    let plain = SimulationConfig::new(catalog());

    let preempting = first_fit(&trace, plain.clone());
    assert!(preempting.evictions > 0, "preemption must re-queue victims");

    let limited = first_fit(&trace, plain.clone().without_preemption().drain_failure_limit(4));
    let unlimited = first_fit(&trace, plain.clone().without_preemption());
    assert_ne!(digest(&limited), digest(&unlimited), "the failure limit must bind");

    let plan = FaultPlan::scenario("mixed", 11, trace.span()).unwrap();
    let faulted = first_fit(&trace, plain.with_faults(plan));
    assert!(fault_evictions(&faulted) > 0, "faults must re-queue evicted tasks");

    assert_eq!(
        [digest(&preempting), digest(&limited), digest(&unlimited), digest(&faulted)],
        [
            "156ae29711af1e58",
            "a7ad4ccb5a8360a5",
            "9c0b3ca52a97e8e4",
            "ecffc2158249fc10",
        ],
        "FirstFit SimReport under [preemption, limit 4, no limit, mixed faults]"
    );
}

#[test]
fn quota_scheduler_drain_paths_are_pinned() {
    let trace = trace();
    let catalog = catalog();

    let plan = FaultPlan::scenario("eviction-wave", 3, trace.span()).unwrap();
    let faulted = run_variant_with_faults(
        &trace,
        &catalog,
        &harmony_config(),
        &classifier_config(),
        Variant::Cbs,
        Some(&plan),
    )
    .unwrap();
    assert!(conserved(&faulted, &trace));
    assert!(fault_evictions(&faulted) > 0, "faults must re-queue evicted tasks");

    // The CBS variant with preemption left on: victims leave the quota
    // ledger through `on_finished` and re-enter the queue mid-drain.
    let classifier =
        Rc::new(TaskClassifier::fit(trace.tasks(), &classifier_config()).unwrap());
    let quota = Rc::new(RefCell::new(QuotaState::default()));
    let price = EnergyPrice::default();
    let controller =
        CbsController::new(classifier.clone(), harmony_config(), price.clone(), quota.clone())
            .unwrap();
    let preempting = Simulation::new(
        SimulationConfig::new(catalog).price(price),
        &trace,
        Box::new(QuotaScheduler::new(classifier, quota)),
    )
    .with_controller(Box::new(controller))
    .run();
    assert!(conserved(&preempting, &trace));
    assert!(preempting.evictions > 0, "preemption must re-queue victims");

    assert_eq!(
        [digest(&faulted), digest(&preempting)],
        ["6eb3142835f7bb5e", "61e414d6dda69d0c"],
        "CBS SimReport under [eviction-wave faults, preemption]"
    );
}
