//! Capacity planning without a simulator in the loop: given per-class
//! arrival rates and SLOs, compute container counts (Eq. 1–3) and solve
//! one CBS-RELAX instance (Eq. 14–16) to get a machine plan.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use harmony::cbs::{solve_cbs_relax, CbsInputs};
use harmony::HarmonyConfig;
use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimTime};
use harmony_queueing::{ContainerSizer, MgnQueue};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = MachineCatalog::table2().scaled(20);
    let config = HarmonyConfig::default();

    // Three hand-described task classes: web serving (small, long-lived,
    // tight SLO), batch analytics (medium), and a memory-hungry cache.
    struct Class {
        name: &'static str,
        rate_per_sec: f64,
        mean_duration_secs: f64,
        cv2: f64,
        mean: Resources,
        std: Resources,
        slo_delay_secs: f64,
        utility_per_hour: f64,
    }
    let classes = [
        Class {
            name: "web-serving",
            rate_per_sec: 0.50,
            mean_duration_secs: 3600.0,
            cv2: 1.0,
            mean: Resources::new(0.02, 0.015),
            std: Resources::new(0.004, 0.003),
            slo_delay_secs: 10.0,
            utility_per_hour: 0.30,
        },
        Class {
            name: "batch",
            rate_per_sec: 2.00,
            mean_duration_secs: 300.0,
            cv2: 2.0,
            mean: Resources::new(0.05, 0.02),
            std: Resources::new(0.015, 0.006),
            slo_delay_secs: 300.0,
            utility_per_hour: 0.03,
        },
        Class {
            name: "cache",
            rate_per_sec: 0.05,
            mean_duration_secs: 7200.0,
            cv2: 0.5,
            mean: Resources::new(0.03, 0.25),
            std: Resources::new(0.008, 0.05),
            slo_delay_secs: 60.0,
            utility_per_hour: 0.10,
        },
    ];

    // Step 1: container sizes from the Gaussian multiplexing bound.
    let sizer = ContainerSizer::new(config.epsilon)?;
    println!("container sizing (epsilon = {}, Z = {:.2}):", config.epsilon, sizer.z());
    let mut sizes = Vec::new();
    let mut counts = Vec::new();
    for c in &classes {
        let size = (c.mean + c.std * sizer.z()).clamp_components(1.0);
        // Step 2: container counts from the M/G/N delay bound.
        let queue = MgnQueue::new(c.rate_per_sec, 1.0 / c.mean_duration_secs, c.cv2)?;
        let n = queue.min_servers(c.slo_delay_secs)?;
        println!(
            "  {:<12} size = {}  containers = {}  (offered load {:.1})",
            c.name,
            size,
            n,
            queue.offered_load()
        );
        sizes.push(size);
        counts.push(n as f64);
    }

    // Step 3: one CBS-RELAX solve over a 4-period horizon.
    let utility: Vec<f64> = classes.iter().map(|c| c.utility_per_hour).collect();
    let demand = vec![counts.clone(); config.horizon];
    let plan = solve_cbs_relax(
        &CbsInputs {
            catalog: &catalog,
            container_sizes: &sizes,
            utility_per_hour: &utility,
            demand: &demand,
            initial_active: &vec![0.0; catalog.len()],
            price: &EnergyPrice::default(),
            now: SimTime::ZERO,
        },
        &config,
    )?;

    println!("\nmachine plan (first period):");
    for (m, ty) in catalog.iter().enumerate() {
        println!("  {:<22} z = {:>7.2} of {}", ty.name, plan.first_step_machines()[m], ty.count);
    }
    println!("objective over horizon: ${:.2}", plan.objective);
    Ok(())
}
