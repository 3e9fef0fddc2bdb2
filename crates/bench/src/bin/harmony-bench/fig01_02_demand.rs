//! Figs. 1–2: total CPU and memory demand over time.
//!
//! The paper's observation: demand for each resource fluctuates
//! significantly over time, far below the fully-on cluster capacity.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::SimDuration;
use harmony_trace::stats::demand_over_time;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let bin = SimDuration::from_hours(1.0);
    let series = demand_over_time(&trace, bin);
    section("Fig. 1-2: total CPU and memory demand over time (hourly)");
    let rows: Vec<Vec<String>> =
        series.iter().map(|(t, r)| vec![fmt(t.as_hours()), fmt(r.cpu), fmt(r.mem)]).collect();
    table(&["hour", "cpu_demand", "mem_demand"], &rows);

    let cpus: Vec<f64> = series.iter().map(|(_, r)| r.cpu).collect();
    let max = cpus.iter().cloned().fold(0.0, f64::max);
    let min = cpus.iter().skip(2).cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\ncpu demand range: {} .. {} (peak/trough = {})",
        fmt(min),
        fmt(max),
        fmt(max / min.max(1e-9))
    );
}
