//! Figs. 21–26: the closed-loop controller comparison (Section IX-B).
//!
//! Runs the heterogeneity-oblivious baseline, CBS, and CBP over the
//! same trace and cluster, and prints:
//!
//! * Figs. 21–22 — active servers over time per approach;
//! * Figs. 23–25 — scheduling-delay CDFs per priority group;
//! * Fig. 26 — total energy consumption, with the headline
//!   CBS-vs-baseline savings (paper: up to 28%).

use harmony::pipeline::{run_comparison, Variant};
use harmony_bench::{evaluation_setup, fmt, section, table, Scale};
use harmony_model::PriorityGroup;
use harmony_sim::SimReport;
use harmony_trace::stats::Cdf;

pub fn run() {
    let (trace, catalog, config, classifier_config) = evaluation_setup(Scale::from_env());
    eprintln!(
        "running 3 controllers over {} tasks on {} machines...",
        trace.len(),
        catalog.total_machines()
    );
    let results =
        run_comparison(&trace, &catalog, &config, &classifier_config).expect("comparison");

    section("Figs. 21-22: active servers over time");
    let mut headers = vec!["hour".to_owned()];
    headers.extend(results.iter().map(|(v, _)| v.name().to_owned()));
    let n = results[0].1.series.len();
    let mut rows = Vec::new();
    for i in 0..n {
        let mut row = vec![fmt(results[0].1.series[i].time.as_hours())];
        for (_, report) in &results {
            let active: usize =
                report.series.get(i).map(|p| p.active_per_type.iter().sum()).unwrap_or(0);
            row.push(active.to_string());
        }
        rows.push(row);
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    table(&header_refs, &rows);

    section("Figs. 23-25: scheduling-delay CDFs per priority group (seconds)");
    let quantiles = [0.5, 0.9, 0.99, 1.0];
    let mut rows = Vec::new();
    for group in PriorityGroup::ALL {
        for (variant, report) in &results {
            let delays = &report.delays_by_group[group.index()];
            let mut row = vec![group.to_string(), variant.name().to_owned()];
            if delays.is_empty() {
                row.extend(std::iter::repeat_n("-".to_owned(), quantiles.len() + 2));
            } else {
                let cdf = Cdf::from_values(delays.clone());
                row.push(delays.len().to_string());
                row.push(fmt(cdf.fraction_at_most(1e-9)));
                for q in quantiles {
                    row.push(fmt(cdf.quantile(q)));
                }
            }
            rows.push(row);
        }
    }
    table(&["group", "approach", "tasks", "immediate", "p50", "p90", "p99", "max"], &rows);

    section("Fig. 26: total energy consumption");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(v, r)| {
            vec![
                v.name().to_owned(),
                fmt(r.total_energy_wh / 1000.0),
                fmt(r.energy_cost_dollars),
                fmt(r.switch_cost_dollars),
                r.switch_count.to_string(),
                fmt(r.mean_active_machines()),
                fmt(r.delay_stats_overall().mean),
                r.tasks_pending_at_end.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "approach",
            "energy_kWh",
            "energy_$",
            "switch_$",
            "switches",
            "mean_active",
            "mean_delay_s",
            "pending_end",
        ],
        &rows,
    );

    let energy = |v: Variant| -> f64 {
        results
            .iter()
            .find(|(var, _)| *var == v)
            .map(|(_, r): &(Variant, SimReport)| r.total_energy_wh)
            .unwrap_or(0.0)
    };
    let baseline = energy(Variant::Baseline);
    if baseline > 0.0 {
        println!(
            "\nCBS energy saving vs baseline: {}% (paper: up to 28%)",
            fmt((1.0 - energy(Variant::Cbs) / baseline) * 100.0)
        );
        println!(
            "CBP energy saving vs baseline: {}%",
            fmt((1.0 - energy(Variant::Cbp) / baseline) * 100.0)
        );
    }
}
