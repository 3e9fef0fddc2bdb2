//! `harmony-bench <subcommand> [args…]` — every table, figure, ablation
//! and robustness experiment of the reproduction behind one binary.
//!
//! Each subcommand is a module of this directory and receives the
//! arguments after its name. `harmony-bench list` (or no argument)
//! prints one subcommand name per line. None of them is a performance
//! benchmark: the repo's one timing harness is `benchmark/`.

mod ablation_container_sizing;
mod ablation_mpc;
mod ablation_omega;
mod ablation_predictor;
mod ablation_price;
mod fault_scenarios;
mod fig01_02_demand;
mod fig03_machines;
mod fig04_delay_cdf;
mod fig05_machine_types;
mod fig06_duration_cdf;
mod fig07_task_sizes;
mod fig09_energy_curves;
mod fig10_18_classification;
mod fig19_arrivals;
mod fig20_containers;
mod fig21_26_controllers;
mod replay;
mod table2_machines;

/// A subcommand's entry point; it gets the arguments after its name.
type Run = fn(&[String]);

/// Subcommand name → entry point, in the order `list` prints them.
const SUBCOMMANDS: &[(&str, Run)] = &[
    ("table2_machines", |_| table2_machines::run()),
    ("fig01_02_demand", |_| fig01_02_demand::run()),
    ("fig03_machines", |_| fig03_machines::run()),
    ("fig04_delay_cdf", |_| fig04_delay_cdf::run()),
    ("fig05_machine_types", |_| fig05_machine_types::run()),
    ("fig06_duration_cdf", |_| fig06_duration_cdf::run()),
    ("fig07_task_sizes", |_| fig07_task_sizes::run()),
    ("fig09_energy_curves", |_| fig09_energy_curves::run()),
    ("fig10_18_classification", |_| {
        fig10_18_classification::run()
    }),
    ("fig19_arrivals", |_| fig19_arrivals::run()),
    ("fig20_containers", |_| fig20_containers::run()),
    ("fig21_26_controllers", |_| fig21_26_controllers::run()),
    ("ablation_container_sizing", |_| {
        ablation_container_sizing::run()
    }),
    ("ablation_mpc", |_| ablation_mpc::run()),
    ("ablation_omega", |_| ablation_omega::run()),
    ("ablation_predictor", |_| ablation_predictor::run()),
    ("ablation_price", |_| ablation_price::run()),
    ("fault_scenarios", |_| fault_scenarios::run()),
    ("replay", replay::run),
];

fn names() -> String {
    SUBCOMMANDS
        .iter()
        .map(|(name, _)| format!("{name}\n"))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("list", String::as_str);
    if name == "list" {
        print!("{}", names());
        return;
    }
    match SUBCOMMANDS.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(&args[1..]),
        None => {
            eprint!("unknown subcommand {name}; subcommands:\n{}", names());
            std::process::exit(2);
        }
    }
}
