//! From-scratch K-means clustering for the HARMONY workload characterizer.
//!
//! The paper (Section V) divides the cloud workload into *task classes*
//! with "standard K-means clustering". This crate provides the clustering
//! substrate:
//!
//! * [`Dataset`] — a dense row-major feature matrix.
//! * [`Log10Transform`] — feature scaling; task sizes span several
//!   orders of magnitude (Section III-D), so clustering runs in log space.
//! * [`KMeans`] — Lloyd's algorithm with k-means++ seeding, empty-cluster
//!   repair, and deterministic seeded runs. The assignment step skips
//!   points whose Hamerly bounds prove their centroid still the nearest,
//!   with output identical to the plain loop.
//! * [`quality`] — the elbow rule over inertia, used in Section IX-A
//!   ("the best value of k ... is selected as the one for which no
//!   significant benefit can be achieved by increasing k").
//!
//! # Examples
//!
//! ```
//! use harmony_kmeans::{Dataset, KMeans};
//!
//! // Two well-separated blobs.
//! let rows = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let data = Dataset::from_rows(rows)?;
//! let model = KMeans::new(2).seed(7).fit(&data)?;
//! assert_eq!(model.k(), 2);
//! // Points 0-2 share a label, points 3-5 share the other.
//! assert_eq!(model.assignments()[0], model.assignments()[1]);
//! assert_ne!(model.assignments()[0], model.assignments()[3]);
//! # Ok::<(), harmony_kmeans::KMeansError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod dataset;
mod error;
mod lloyd;
pub mod quality;
mod scale;

pub use dataset::Dataset;
pub use error::KMeansError;
pub use lloyd::{KMeans, KMeansModel};
pub use quality::{elbow_k, ElbowReport};
pub use scale::Log10Transform;
