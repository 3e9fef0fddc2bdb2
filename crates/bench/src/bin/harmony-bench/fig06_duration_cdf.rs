//! Fig. 6: CDF of task duration per priority group.
//!
//! The paper's observations: more than 50% of tasks run under 100 s;
//! gratis/other durations stay within hours while production tails reach
//! 17 days.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::PriorityGroup;
use harmony_trace::stats::duration_cdf_by_group;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let cdfs = duration_cdf_by_group(&trace);

    section("Fig. 6: task-duration CDF per priority group (seconds)");
    let quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
    let mut rows = Vec::new();
    for group in PriorityGroup::ALL {
        let cdf = &cdfs[group.index()];
        let mut row = vec![group.to_string(), cdf.len().to_string()];
        for q in quantiles {
            row.push(fmt(cdf.quantile(q)));
        }
        row.push(fmt(cdf.fraction_at_most(100.0)));
        rows.push(row);
    }
    let labels: Vec<String> = quantiles
        .iter()
        .map(|q| format!("p{}", (q * 100.0) as u32))
        .collect();
    let mut headers = vec!["group", "tasks"];
    headers.extend(labels.iter().map(String::as_str));
    headers.push("frac<=100s");
    table(&headers, &rows);

    let all: Vec<f64> = trace.tasks().iter().map(|t| t.duration.as_secs()).collect();
    let short = all.iter().filter(|&&d| d < 100.0).count() as f64 / all.len() as f64;
    println!(
        "\nfraction of all tasks under 100 s: {} (paper: >50%)",
        fmt(short)
    );
    println!(
        "production max duration: {} days (paper: up to 17 days)",
        fmt(cdfs[PriorityGroup::Production.index()].quantile(1.0) / 86_400.0)
    );
}
