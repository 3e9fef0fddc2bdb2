//! Fig. 3: machines available vs. used over time.
//!
//! The paper's observation: the number of used machines tracks the
//! number of available machines — cluster capacity is not adjusted to
//! demand, so "a large number of machines can be turned off to save
//! energy". We replay the trace on a fully-on ten-type cluster and
//! report available vs. used.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::MachineCatalog;
use harmony_sim::{FirstFit, Simulation, SimulationConfig};

pub fn run() {
    let scale = Scale::from_env();
    let trace = analysis_trace(scale);
    let divisor = match scale {
        Scale::Quick => 200,
        Scale::Default => 50,
        Scale::Full => 10,
    };
    let catalog = MachineCatalog::google_ten_types().scaled(divisor);
    let available = catalog.total_machines();
    let config = SimulationConfig::new(catalog).all_machines_on();
    let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();

    section("Fig. 3: machines available and used");
    let rows: Vec<Vec<String>> = report
        .series
        .iter()
        .map(|p| {
            vec![
                fmt(p.time.as_hours()),
                available.to_string(),
                p.used_per_type.iter().sum::<usize>().to_string(),
            ]
        })
        .collect();
    table(&["hour", "available", "used"], &rows);

    let mean_used: f64 =
        report.series.iter().map(|p| p.used_per_type.iter().sum::<usize>() as f64).sum::<f64>()
            / report.series.len().max(1) as f64;
    println!(
        "\navailable: {available}  mean used: {}  idle headroom: {}%",
        fmt(mean_used),
        fmt((1.0 - mean_used / available as f64) * 100.0)
    );
}
