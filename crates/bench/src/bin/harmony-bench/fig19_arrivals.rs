//! Fig. 19: aggregated task arrival rate per priority group over time.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::{PriorityGroup, SimDuration};
use harmony_trace::stats::arrival_rate_series;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let bin = SimDuration::from_hours(1.0);
    let series = arrival_rate_series(&trace, bin);

    section("Fig. 19: arrival rate (tasks/s) per priority group, hourly");
    let n = series[0].len();
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            vec![
                i.to_string(),
                fmt(series[PriorityGroup::Gratis.index()][i]),
                fmt(series[PriorityGroup::Other.index()][i]),
                fmt(series[PriorityGroup::Production.index()][i]),
            ]
        })
        .collect();
    table(&["hour", "gratis", "other", "production"], &rows);

    for g in PriorityGroup::ALL {
        let s = &series[g.index()];
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let max = s.iter().cloned().fold(0.0, f64::max);
        println!("{g}: mean {} tasks/s, peak {} tasks/s", fmt(mean), fmt(max));
    }
}
