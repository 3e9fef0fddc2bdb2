//! Section-III style trace analysis: generate a synthetic
//! Google-cluster-like workload and characterize its heterogeneity.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example trace_analysis
//! ```

use harmony::classify::{ClassifierConfig, Regime, TaskClassifier};
use harmony_model::{PriorityGroup, SimDuration};
use harmony_trace::stats::{arrival_rate_series, duration_cdf_by_group};
use harmony_trace::{TraceConfig, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TraceConfig::google_like().with_span(SimDuration::from_days(2.0));
    let trace = TraceGenerator::new(config).generate();

    println!("== workload overview ==");
    println!("tasks: {}  span: {:.0} h", trace.len(), trace.span().as_hours());
    let counts = trace.group_counts();
    for g in PriorityGroup::ALL {
        println!(
            "  {:<11} {:>7} tasks ({:.0}%)",
            g.to_string(),
            counts[g.index()],
            counts[g.index()] as f64 / trace.len() as f64 * 100.0
        );
    }

    println!("\n== durations (Fig. 6 shape) ==");
    let cdfs = duration_cdf_by_group(&trace);
    for g in PriorityGroup::ALL {
        let cdf = &cdfs[g.index()];
        println!(
            "  {:<11} p50 = {:>7.0}s  p90 = {:>8.0}s  max = {:>6.1} days  <=100s: {:.0}%",
            g.to_string(),
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.quantile(1.0) / 86_400.0,
            cdf.fraction_at_most(100.0) * 100.0
        );
    }

    println!("\n== arrival rates (Fig. 19 shape) ==");
    let rates = arrival_rate_series(&trace, SimDuration::from_hours(1.0));
    for g in PriorityGroup::ALL {
        let s = &rates[g.index()];
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let peak = s.iter().cloned().fold(0.0, f64::max);
        println!("  {:<11} mean {:.2} tasks/s, peak {:.2} tasks/s", g.to_string(), mean, peak);
    }

    println!("\n== task classes (Section V) ==");
    let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default())?;
    println!(
        "  {} classes; initial-label error {:.1}%",
        classifier.classes().len(),
        classifier.initial_label_error(trace.tasks()) * 100.0
    );
    for class in classifier.classes() {
        println!(
            "  {:<9} {:<11} {:<5} n={:<7} cpu {:.4}±{:.4}  mem {:.4}±{:.4}  dur {:>7.0}s",
            format!("{}", class.id),
            class.group.to_string(),
            match class.regime {
                Regime::Short => "short",
                Regime::Long => "long",
            },
            class.stats.count,
            class.stats.mean_demand.cpu,
            class.stats.std_demand.cpu,
            class.stats.mean_demand.mem,
            class.stats.std_demand.mem,
            class.stats.mean_duration.as_secs(),
        );
    }
    Ok(())
}
