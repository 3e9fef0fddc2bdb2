//! Ablation: the over-provisioning factor ω (Eq. 17).
//!
//! ω inflates container sizes inside the capacity constraint to absorb
//! bin-packing inefficiency. The paper samples ω in [1, 2|R|]; we sweep
//! the same range and report the energy/delay trade-off.

use std::rc::Rc;

use harmony::classify::TaskClassifier;
use harmony::pipeline::{simulate, Variant};
use harmony_bench::{evaluation_setup, fmt, section, table, Scale};
use harmony_model::EnergyPrice;

pub fn run() {
    let (trace, catalog, base_config, classifier_config) = evaluation_setup(Scale::Quick);
    let classifier = Rc::new(TaskClassifier::fit(trace.tasks(), &classifier_config).expect("fit"));
    let price = EnergyPrice::default();

    section("Ablation: over-provisioning factor omega (CBS)");
    let mut rows = Vec::new();
    for omega in [1.0, 1.1, 1.25, 1.5, 2.0, 4.0] {
        let mut config = base_config.clone();
        config.omega = omega;
        let report =
            simulate(&trace, &catalog, &config, Some(&classifier), Variant::Cbs, &price, None)
                .expect("run");
        rows.push(vec![
            fmt(omega),
            fmt(report.total_energy_wh / 1000.0),
            fmt(report.mean_active_machines()),
            fmt(report.delay_stats_overall().mean),
            fmt(report.delay_stats_overall().p99),
            report.tasks_pending_at_end.to_string(),
        ]);
    }
    table(
        &["omega", "energy_kWh", "mean_active", "mean_delay_s", "p99_delay_s", "pending_end"],
        &rows,
    );
    println!(
        "\n(omega = 1 trusts fractional packing exactly; omega = 2|R| = 4 \
         doubles-per-resource the reserved headroom — more energy, less delay)"
    );
}
