//! The worker count of a control period: always one.
//!
//! The control period runs its stages one after another on the caller's
//! thread (DESIGN §10.3): the forecast fits every class in one lane
//! batch and sizing is a plain loop. This shim stays because callers
//! outside the workspace and old configurations still name a worker
//! count.

/// The number of workers a per-class stage uses: 1, whatever the
/// override (`HarmonyConfig::pipeline_workers`) or the job count.
pub fn effective_workers(_override_workers: Option<usize>, _jobs: usize) -> usize {
    1
}
