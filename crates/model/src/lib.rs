//! Domain model shared by every crate in the HARMONY workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *"HARMONY: Dynamic Heterogeneity-Aware Resource Provisioning in the
//! Cloud"* (ICDCS 2013):
//!
//! * [`Resources`] — a fixed-dimension (CPU, memory) resource vector, the
//!   set `R` of the paper with `|R| = 2`.
//! * [`Task`], [`Priority`], [`PriorityGroup`], [`SchedulingClass`] — the
//!   workload units of the Google-trace data model analysed in Section III.
//! * [`MachineType`], [`MachineCatalog`] — heterogeneous machine platforms;
//!   [`MachineCatalog::table2`] encodes the four simulated server models of
//!   Table II.
//! * [`PowerModel`], [`EnergyPrice`] — the linear utilization→power model of
//!   Eq. (7) and the run-time electricity price `p_t`.
//! * [`SimTime`], [`SimDuration`] — strongly-typed simulation clock values.
//! * [`SplitMix64`] — the seeded PRNG behind every fault plan and chaos
//!   schedule.
//!
//! # Examples
//!
//! ```
//! use harmony_model::{MachineCatalog, Resources};
//!
//! let catalog = MachineCatalog::table2();
//! assert_eq!(catalog.len(), 4);
//! // The largest machine (HP DL585 G7) is normalized to capacity 1.0.
//! let largest = catalog.iter().map(|m| m.capacity).fold(Resources::ZERO, Resources::max);
//! assert_eq!(largest, Resources::new(1.0, 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod class;
mod error;
mod machine;
mod power;
mod resources;
mod rng;
mod serde_impls;
mod task;
mod time;
pub mod wire;

pub use class::{ClassStats, TaskClassId};
pub use error::ModelError;
pub use machine::{MachineCatalog, MachineType, MachineTypeId};
pub use power::{EnergyPrice, PowerModel};
pub use resources::{ResourceKind, Resources, NUM_RESOURCES};
pub use rng::SplitMix64;
pub use task::{JobId, Priority, PriorityGroup, SchedulingClass, Task, TaskId};
pub use time::{SimDuration, SimTime};
