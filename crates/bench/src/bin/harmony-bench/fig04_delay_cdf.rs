//! Fig. 4: CDF of task scheduling delay per priority group.
//!
//! The paper's observation on the Google trace: production tasks are
//! scheduled sooner than gratis ones (priorities preempt queue order),
//! and a heavy tail of difficult-to-schedule tasks waits far longer. We
//! replay the trace on a *capacity-constrained* static cluster so
//! queueing actually occurs, and print per-group delay CDFs.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::{MachineCatalog, PriorityGroup};
use harmony_sim::{FirstFit, Simulation, SimulationConfig};
use harmony_trace::stats::Cdf;

pub fn run() {
    let scale = Scale::from_env();
    let trace = analysis_trace(scale);
    // Deliberately tight cluster: ~4x fewer machines than Fig. 3 uses.
    let divisor = match scale {
        Scale::Quick => 700,
        Scale::Default => 500,
        Scale::Full => 70,
    };
    let catalog = MachineCatalog::google_ten_types().scaled(divisor);
    let config = SimulationConfig::new(catalog).all_machines_on();
    let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();

    section("Fig. 4: scheduling-delay CDF per priority group");
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    let mut rows = Vec::new();
    for group in PriorityGroup::ALL {
        let delays = &report.delays_by_group[group.index()];
        if delays.is_empty() {
            continue;
        }
        let cdf = Cdf::from_values(delays.clone());
        let mut row = vec![group.to_string(), cdf.len().to_string()];
        row.push(fmt(cdf.fraction_at_most(1e-9))); // immediate fraction
        for q in quantiles {
            row.push(fmt(cdf.quantile(q)));
        }
        rows.push(row);
    }
    let mut headers = vec!["group", "tasks", "immediate"];
    let labels: Vec<String> =
        quantiles.iter().map(|q| format!("p{}", (q * 100.0) as u32)).collect();
    headers.extend(labels.iter().map(String::as_str));
    table(&headers, &rows);

    let prod = report.delay_stats(PriorityGroup::Production);
    let gratis = report.delay_stats(PriorityGroup::Gratis);
    println!(
        "\nimmediate-schedule fraction: production {} vs gratis {} (paper: >50% vs <30%)",
        fmt(prod.immediate_fraction),
        fmt(gratis.immediate_fraction)
    );
}
