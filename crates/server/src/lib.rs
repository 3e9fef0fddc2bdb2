//! `harmony-server` — the HARMONY online provisioning service.
//!
//! This crate turns the batch [`harmony`] pipeline into a long-running
//! daemon. Two binaries ship with it:
//!
//! * **`harmonyd`** — listens on TCP, speaks newline-delimited JSON
//!   ([`protocol`]), buffers submitted task observations, runs the
//!   monitor → forecast → size → CBS-RELAX → round control loop each
//!   period (manually via `tick` or on a background ticker), and
//!   checkpoints its controller state crash-safely ([`state`]).
//! * **`harmonyctl`** — a thin CLI over the [`client`] library.
//!
//! The split mirrors the paper's deployment story: Harmony is an online
//! controller that keeps re-planning as arrivals stream in, so the
//! reproduction needs a service form of the pipeline, not just batch
//! replays. Everything here is std-only (thread-per-connection, no
//! async runtime) to honor the repo's no-new-dependencies rule.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod net;
pub mod protocol;
pub mod service;
pub mod state;

pub use client::{Client, RetryPolicy};
pub use protocol::{
    ErrorKind, HistogramBody, MetricsBody, Request, Response, StatusBody, MAX_LINE_BYTES,
};
pub use service::Service;
pub use state::{CatalogSpec, Checkpoint, ClassifierSource, RecoveryEvent, CHECKPOINT_VERSION};
