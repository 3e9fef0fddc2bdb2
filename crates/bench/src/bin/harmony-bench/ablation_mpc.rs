//! Ablation: MPC horizon W and switching cost q (DESIGN.md §5).
//!
//! Longer horizons let the controller see payback periods for switching
//! machines off; higher switching costs damp machine-count churn.

use std::rc::Rc;

use harmony::classify::TaskClassifier;
use harmony::pipeline::{simulate, Variant};
use harmony_bench::{evaluation_setup, fmt, section, table, Scale};
use harmony_model::{EnergyPrice, MachineCatalog};

pub fn run() {
    let (trace, catalog, base_config, classifier_config) = evaluation_setup(Scale::Quick);
    let classifier = Rc::new(TaskClassifier::fit(trace.tasks(), &classifier_config).expect("fit"));
    let price = EnergyPrice::default();

    section("Ablation: MPC horizon W (CBP)");
    let mut rows = Vec::new();
    for horizon in [1usize, 2, 4, 8] {
        let mut config = base_config.clone();
        config.horizon = horizon;
        let report =
            simulate(&trace, &catalog, &config, Some(&classifier), Variant::Cbp, &price, None)
                .expect("run");
        rows.push(vec![
            horizon.to_string(),
            fmt(report.total_energy_wh / 1000.0),
            report.switch_count.to_string(),
            fmt(report.delay_stats_overall().mean),
            report.tasks_pending_at_end.to_string(),
        ]);
    }
    table(&["W", "energy_kWh", "switches", "mean_delay_s", "pending_end"], &rows);

    section("Ablation: switching-cost multiplier (CBP, W=4)");
    let mut rows = Vec::new();
    for multiplier in [0.1, 1.0, 10.0, 100.0] {
        let types: Vec<_> = catalog
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.switching_cost *= multiplier;
                t
            })
            .collect();
        let scaled_catalog = MachineCatalog::new(types).expect("valid catalog");
        let report = simulate(
            &trace,
            &scaled_catalog,
            &base_config,
            Some(&classifier),
            Variant::Cbp,
            &price,
            None,
        )
        .expect("run");
        rows.push(vec![
            fmt(multiplier),
            fmt(report.total_energy_wh / 1000.0),
            report.switch_count.to_string(),
            fmt(report.switch_cost_dollars),
            fmt(report.delay_stats_overall().mean),
        ]);
    }
    table(&["q_multiplier", "energy_kWh", "switches", "switch_$", "mean_delay_s"], &rows);
}
