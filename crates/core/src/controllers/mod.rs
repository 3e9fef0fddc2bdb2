//! Capacity-provisioning controllers: HARMONY's CBS and CBP, and the
//! heterogeneity-oblivious baseline they are evaluated against
//! (Section IX-B).

mod baseline;
mod harmony_ctl;
mod quota;

pub use baseline::BaselineController;
pub use harmony_ctl::{CbpController, CbsController};
pub use quota::{QuotaScheduler, QuotaState};
