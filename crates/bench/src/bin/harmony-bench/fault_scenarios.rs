//! Robustness comparison: Baseline vs CBS vs CBP energy and P95
//! scheduling delay under every named fault scenario.
//!
//! Companion to the Fig. 21–26 controller comparison: the same
//! evaluation setup, but each run is stressed by a deterministic
//! [`FaultPlan`] (machine crashes, slow boots, eviction waves, arrival
//! bursts). The interesting question is whether HARMONY's provisioning
//! advantage survives infrastructure faults — and whether any variant
//! loses tasks (none may: task conservation is asserted per run).
//!
//! Honors `HARMONY_SCALE` and `HARMONY_SEED`. Besides the stdout
//! tables, writes a machine-readable copy of every row to
//! `results/BENCH_fault_scenarios.json` (see [`harmony_bench::json`]).

use harmony::pipeline::{run_variant_with_faults, Variant};
use harmony_bench::json;
use harmony_bench::{evaluation_setup, fmt, section, seed_from_env, table, Scale};
use harmony_model::PriorityGroup;
use harmony_sim::{FaultPlan, SCENARIOS};
use serde::value::Value;

pub fn run() {
    let scale = Scale::from_env();
    let (trace, catalog, config, classifier_config) = evaluation_setup(scale);
    eprintln!(
        "fault scenarios: {} tasks over {:.1} h on {} machines",
        trace.len(),
        trace.span().as_hours(),
        catalog.total_machines(),
    );
    let mut json_rows = Vec::new();

    for scenario in SCENARIOS {
        let plan = FaultPlan::scenario(scenario, seed_from_env(), trace.span())
            .expect("named scenario exists");
        section(&format!(
            "scenario: {scenario} ({} fault events)",
            plan.events().len()
        ));
        let mut rows = Vec::new();
        for variant in Variant::ALL {
            let report = run_variant_with_faults(
                &trace,
                &catalog,
                &config,
                &classifier_config,
                variant,
                Some(&plan),
            )
            .unwrap_or_else(|e| panic!("{} failed under {scenario}: {e}", variant.name()));

            let accounted = report.tasks_completed
                + report.tasks_running_at_end
                + report.tasks_pending_at_end
                + report.tasks_unschedulable
                + report.tasks_failed;
            assert_eq!(
                accounted,
                trace.len(),
                "{} under {scenario}: lost tasks",
                variant.name()
            );

            let prod = report.delay_stats(PriorityGroup::Production);
            let others = report.delay_stats(PriorityGroup::Other);
            json_rows.push(Value::object(&[
                ("scenario", Value::String(scenario.to_string())),
                ("variant", Value::String(variant.name().to_owned())),
                ("energy_kwh", Value::Number(report.total_energy_wh / 1000.0)),
                (
                    "total_dollars",
                    Value::Number(report.energy_cost_dollars + report.switch_cost_dollars),
                ),
                (
                    "tasks_completed",
                    Value::Number(report.tasks_completed as f64),
                ),
                ("tasks_failed", Value::Number(report.tasks_failed as f64)),
                ("prod_p95_s", Value::Number(prod.p95)),
                ("others_p95_s", Value::Number(others.p95)),
                ("faults", Value::Number(report.faults.len() as f64)),
                (
                    "degradations",
                    Value::Number(report.degradations.len() as f64),
                ),
            ]));
            rows.push(vec![
                variant.name().to_owned(),
                fmt(report.total_energy_wh / 1000.0),
                fmt(report.energy_cost_dollars + report.switch_cost_dollars),
                report.tasks_completed.to_string(),
                report.tasks_failed.to_string(),
                fmt(prod.p95),
                fmt(others.p95),
                report.faults.len().to_string(),
                report.degradations.len().to_string(),
            ]);
        }
        table(
            &[
                "variant",
                "energy kWh",
                "total $",
                "completed",
                "failed",
                "prod p95 s",
                "others p95 s",
                "faults",
                "degradations",
            ],
            &rows,
        );
    }

    let payload = Value::object(&[
        ("bench", Value::String("fault_scenarios".to_owned())),
        ("scale", Value::String(scale.name().to_owned())),
        ("seed", Value::Number(seed_from_env() as f64)),
        ("rows", Value::Array(json_rows)),
    ]);
    match json::write_bench_json("fault_scenarios", &payload) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_fault_scenarios.json: {e}"),
    }
}
