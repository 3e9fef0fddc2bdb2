//! Ablation: the container-sizing quantile (Eq. 3).
//!
//! Sweeps the machine-capacity violation budget ε and reports the
//! resulting `Z`, the reservation inflation over the class mean, and a
//! Monte-Carlo estimate of the actual violation rate when packing
//! reservations onto the largest machine.

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony_bench::{analysis_trace, fmt, section, table, Scale};
use harmony_model::Resources;
use harmony_queueing::ContainerSizer;
use harmony_trace::standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run() {
    let trace = analysis_trace(Scale::from_env());
    let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default()).expect("fit");
    // The most populous class drives the study.
    let class = classifier
        .classes()
        .iter()
        .max_by_key(|c| c.stats.count)
        .expect("classes exist");

    section("Ablation: container sizing quantile (Eq. 3)");
    let mut rows = Vec::new();
    for epsilon in [0.2, 0.1, 0.05, 0.01, 0.001] {
        let sizer = ContainerSizer::new(epsilon).expect("valid epsilon");
        let c = sizer.container_size(&class.stats);
        let inflation = c.sum_components() / class.stats.mean_demand.sum_components().max(1e-12);
        // Monte Carlo: pack k reservations into a unit machine, draw true
        // demands from the class Gaussian, count capacity violations.
        let k = ((1.0 / c.cpu).floor().min((1.0 / c.mem).floor()) as usize).max(1);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 3000;
        let mut violations = 0usize;
        for _ in 0..trials {
            let mut used = Resources::ZERO;
            for _ in 0..k {
                used += Resources::new(
                    (class.stats.mean_demand.cpu
                        + class.stats.std_demand.cpu * standard_normal(&mut rng))
                    .max(0.0),
                    (class.stats.mean_demand.mem
                        + class.stats.std_demand.mem * standard_normal(&mut rng))
                    .max(0.0),
                );
            }
            if !used.fits_within(Resources::ONE) {
                violations += 1;
            }
        }
        rows.push(vec![
            fmt(epsilon),
            fmt(sizer.z()),
            fmt(c.cpu),
            fmt(c.mem),
            fmt(inflation),
            k.to_string(),
            fmt(violations as f64 / trials as f64),
        ]);
    }
    table(
        &[
            "epsilon",
            "Z",
            "c_cpu",
            "c_mem",
            "inflation",
            "containers/machine",
            "mc_violation_rate",
        ],
        &rows,
    );
    println!(
        "\n(class {} with {} members; trade-off: smaller epsilon = bigger \
         reservations = fewer violations but more wastage)",
        class.id, class.stats.count
    );
}
