//! Synthetic Google-cluster-like workload traces for HARMONY.
//!
//! The paper evaluates on 29 days of a proprietary Google compute-cluster
//! trace (12k machines, 25.4M tasks). That trace is not redistributable at
//! this scale, so this crate provides a **statistical workload generator**
//! calibrated to every property Section III reports and the provisioning
//! scheme exploits:
//!
//! * tasks arrive in three priority groups (gratis / other / production)
//!   via a non-homogeneous Poisson process with diurnal swing and noise
//!   (Figs. 1–2: "demand ... can fluctuate significantly over time");
//! * task CPU/memory sizes are drawn from per-group mixture models whose
//!   modes span **three orders of magnitude**, including the dominant
//!   gratis mode at exactly `(0.0125, 0.0159)` holding ≈43% of gratis
//!   tasks, and CPU-heavy / memory-heavy large-task modes (Fig. 7);
//! * durations are bimodal — "tasks are either short or long" — with more
//!   than half of all tasks under 100 s and production tails reaching
//!   17 days (Fig. 6);
//! * machine heterogeneity comes from
//!   [`harmony_model::MachineCatalog::google_ten_types`] (Fig. 5) or the
//!   Table II evaluation catalog.
//!
//! [`stats`] computes the trace-analysis series behind Figs. 1–7, and
//! [`google_csv`] imports/exports the Google cluster-data v1
//! `task_events` CSV layout, so the real trace (where available) can be
//! loaded in place of the generator.
//!
//! # Examples
//!
//! ```
//! use harmony_trace::{TraceConfig, TraceGenerator};
//! use harmony_model::PriorityGroup;
//!
//! let config = TraceConfig::small();
//! let trace = TraceGenerator::new(config).generate();
//! assert!(trace.len() > 100);
//! // All three priority groups are represented.
//! for group in PriorityGroup::ALL {
//!     assert!(trace.tasks_in_group(group).next().is_some());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod generator;
pub mod google_csv;
mod random;
pub mod stats;
mod trace_data;

pub use config::{ArrivalConfig, DurationConfig, SizeMode, TraceConfig};
pub use generator::TraceGenerator;
pub use random::{lognormal, poisson, standard_normal};
pub use trace_data::{Trace, TraceError};
