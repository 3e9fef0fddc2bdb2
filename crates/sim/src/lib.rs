//! Discrete-event heterogeneous-cluster simulator for HARMONY.
//!
//! The paper evaluates HARMONY "through simulations using real traces
//! from Google's compute clusters" on the Table II machine mix. This
//! crate is that substrate, rebuilt:
//!
//! * [`Cluster`] — a population of machines instantiated from a
//!   [`harmony_model::MachineCatalog`], each with an on/boot/off
//!   lifecycle, per-machine utilization, and lazily-integrated energy
//!   metering under the linear power model of Eq. (7).
//! * [`Scheduler`] — pluggable task-placement policies ([`FirstFit`],
//!   [`BestFit`], [`EnergyEfficientFirstFit`]); controllers that need to
//!   coordinate with scheduling (the paper's CBS) wrap these with quota
//!   logic in the `harmony` crate.
//! * [`Controller`] — the dynamic-capacity-provisioning hook: once per
//!   control period it observes the cluster and pending work and sets a
//!   per-type active-machine target.
//! * [`Simulation`] — the event loop: task arrivals from a
//!   [`harmony_trace::Trace`], task completions, machine boot
//!   completions, controller ticks, and metric samples; produces a
//!   [`SimReport`] with scheduling-delay distributions per priority
//!   group, energy/cost totals and time series (Figs. 3, 4, 21–26).
//!
//! # Examples
//!
//! ```
//! use harmony_model::MachineCatalog;
//! use harmony_sim::{FirstFit, Simulation, SimulationConfig};
//! use harmony_trace::{TraceConfig, TraceGenerator};
//!
//! let trace = TraceGenerator::new(TraceConfig::small()).generate();
//! let catalog = MachineCatalog::table2().scaled(100); // 1% scale
//! let config = SimulationConfig::new(catalog).all_machines_on();
//! let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
//! assert_eq!(
//!     report.tasks_completed + report.tasks_running_at_end
//!         + report.tasks_pending_at_end + report.tasks_unschedulable,
//!     trace.len(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod calendar;
mod cluster;
mod controller;
mod engine;
#[cfg(test)]
mod engine_equivalence;
mod faults;
mod index;
mod machine;
mod metrics;
mod scheduler;
mod serde_impls;

pub use cluster::Cluster;
pub use controller::{
    ControlDecision, Controller, DegradationEvent, DegradationKind, ForecastTier, NullController,
    Observation, TaskView, TaskViewIter,
};
pub use engine::{EngineMode, Simulation, SimulationConfig};
pub use faults::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRecord, FaultRecordKind, SCENARIOS,
};
pub use machine::{Machine, MachineId, MachineState};
pub use metrics::{DelayStats, SimReport, TimePoint};
pub use scheduler::{BestFit, EnergyEfficientFirstFit, FirstFit, Scheduler};
