//! Monetary layer for the HARMONY workspace.
//!
//! The paper's objective (Eq. 14–16) prices a provisioning plan in
//! energy and switching cost; ROADMAP item 4 extends it to what
//! heterogeneous clouds actually bill: dollars. This crate supplies the
//! vocabulary that extension needs, without the core crates knowing how
//! prices are made:
//!
//! * [`PriceBook`] — per-machine-type on-demand and spot $/hour rates,
//!   with a seeded, time-varying [`SpotPriceSeries`] per spot-priced
//!   type.
//! * [`SpotMarket`] — turns a price book into a reproducible
//!   [`harmony_sim::FaultPlan`] of spot-eviction events, so market
//!   reclaims flow through the simulator's existing fault machinery.
//! * [`SloCostCurve`] — a concave dollars-per-container-hour utility
//!   curve per class, the monetary analogue of the paper's
//!   `utility_per_container_hour`.
//! * [`CostModel`] / [`CostBreakdown`] — post-hoc dollar accounting
//!   over a [`harmony_sim::SimReport`], identical across controllers so
//!   objectives can be compared on one ledger.
//!
//! Everything is deterministic from explicit seeds; the crate has no
//! clock, no RNG dependency, and no I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod book;
mod error;
mod report;
mod serde_impls;
mod slo;
mod spot;

pub use book::{MarketPolicy, PriceBook, RateQuote, SpotPrice, SpotPriceSeries, TypePrice};
pub use error::PricingError;
pub use report::{CostBreakdown, CostModel};
pub use slo::SloCostCurve;
pub use spot::SpotMarket;
