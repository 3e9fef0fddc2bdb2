//! **HARMONY** — Heterogeneity-Aware Resource Monitoring and management
//! sYstem (ICDCS 2013), reproduced in Rust.
//!
//! HARMONY is a dynamic capacity provisioning (DCP) framework for
//! heterogeneous data centers. It continuously decides *how many machines
//! of each type* should be powered on so that total energy cost and task
//! scheduling delay are jointly minimized. The pipeline, mirroring the
//! paper's architecture (Fig. 8):
//!
//! 1. **Task analysis** ([`classify`]) — K-means over static features
//!    (per priority group, log-scale CPU/memory) divides the workload
//!    into task classes; a second k=2 clustering on duration splits each
//!    class into *short*/*long* sub-classes, enabling run-time labeling
//!    that starts every task as "short" and relabels the few long ones as
//!    they age (Section V).
//! 2. **Workload prediction** ([`monitor`], `harmony-forecast`) — per-
//!    class arrival rates are monitored each control period and forecast
//!    with ARIMA (Section VI).
//! 3. **Container management** ([`containers`]) — each class's container
//!    count comes from the M/G/N delay model (Eq. 1–2) and its container
//!    size from Gaussian statistical multiplexing (Eq. 3).
//! 4. **Capacity provisioning** ([`cbs`], [`rounding`]) — the CBS-RELAX
//!    convex program (Eq. 14–16) is solved over an MPC horizon with
//!    machine switching costs; Lemma-1 First-Fit rounding converts the
//!    fractional plan into integer machine counts and per-type container
//!    quotas (Algorithm 1).
//! 5. **Control** ([`controllers`]) — three drop-in controllers for
//!    `harmony-sim`: [`controllers::CbsController`] (quota-coordinated
//!    scheduling), [`controllers::CbpController`] (provisioning only,
//!    stock scheduler), and the heterogeneity-oblivious
//!    [`controllers::BaselineController`] (80% bottleneck utilization,
//!    energy-greedy machine order) the paper compares against.
//!
//! [`pipeline`] wires everything together for the evaluation scenarios;
//! [`online`] exposes the same loop incrementally for long-running
//! services (the `harmonyd` provisioning daemon in `crates/server`).
//!
//! # Examples
//!
//! ```
//! use harmony::classify::{ClassifierConfig, TaskClassifier};
//! use harmony_trace::{TraceConfig, TraceGenerator};
//!
//! let trace = TraceGenerator::new(TraceConfig::small()).generate();
//! let classifier = TaskClassifier::fit(trace.tasks(), &ClassifierConfig::default())?;
//! // Every task gets a run-time label from its static features alone.
//! let label = classifier.initial_label(&trace.tasks()[0]);
//! assert!(label.0 < classifier.classes().len());
//! # Ok::<(), harmony::HarmonyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cbs;
pub mod classify;
pub mod config;
pub mod containers;
mod control_loop;
pub mod controllers;
mod error;
pub mod monitor;
pub mod online;
pub mod par;
pub mod pipeline;
pub mod rounding;
#[cfg(test)]
mod serde_impls;

pub use config::HarmonyConfig;
// Re-exported so callers tallying warm-start outcomes need not depend
// on harmony-lp directly.
pub use error::HarmonyError;
pub use harmony_lp::WarmOutcome;
pub use online::{OnlinePipeline, OnlineState};
