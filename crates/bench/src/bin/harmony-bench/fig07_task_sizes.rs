//! Fig. 7a–c: task CPU × memory scatter per priority group.
//!
//! The paper's observations: sizes span ~3 orders of magnitude; 43% of
//! gratis tasks sit at exactly (0.0125, 0.0159); large tasks are either
//! CPU-intensive or memory-intensive; CPU and memory are uncorrelated.

use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::{PriorityGroup, Resources};
use harmony_trace::stats::size_scatter;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());

    for group in PriorityGroup::ALL {
        let points = size_scatter(&trace, group, 200);
        section(&format!("Fig. 7 ({group}): task size scatter sample"));
        let rows: Vec<Vec<String>> = points.iter().map(|(c, m)| vec![fmt(*c), fmt(*m)]).collect();
        table(&["cpu", "mem"], &rows);
    }

    section("Fig. 7 summary statistics");
    let mut rows = Vec::new();
    for group in PriorityGroup::ALL {
        let sizes: Vec<Resources> = trace.tasks_in_group(group).map(|t| t.demand).collect();
        let max_cpu = sizes.iter().map(|r| r.cpu).fold(0.0, f64::max);
        let min_cpu = sizes.iter().map(|r| r.cpu).fold(f64::INFINITY, f64::min);
        // Pearson correlation between cpu and mem.
        let n = sizes.len() as f64;
        let mc = sizes.iter().map(|r| r.cpu).sum::<f64>() / n;
        let mm = sizes.iter().map(|r| r.mem).sum::<f64>() / n;
        let cov = sizes
            .iter()
            .map(|r| (r.cpu - mc) * (r.mem - mm))
            .sum::<f64>()
            / n;
        let sc = (sizes.iter().map(|r| (r.cpu - mc).powi(2)).sum::<f64>() / n).sqrt();
        let sm = (sizes.iter().map(|r| (r.mem - mm).powi(2)).sum::<f64>() / n).sqrt();
        let corr = cov / (sc * sm).max(1e-12);
        let exact = sizes
            .iter()
            .filter(|r| **r == Resources::new(0.0125, 0.0159))
            .count() as f64
            / n;
        rows.push(vec![
            group.to_string(),
            fmt(min_cpu),
            fmt(max_cpu),
            fmt(max_cpu / min_cpu),
            fmt(corr),
            fmt(exact),
        ]);
    }
    table(
        &[
            "group",
            "min_cpu",
            "max_cpu",
            "span_x",
            "cpu_mem_corr",
            "frac_at_dominant_mode",
        ],
        &rows,
    );
}
