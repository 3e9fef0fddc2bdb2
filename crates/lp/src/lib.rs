//! A two-phase sparse revised simplex LP solver, built from scratch for
//! solving the paper's CBS-RELAX provisioning relaxation (Eq. 14–16).
//!
//! CBS-RELAX maximizes a concave objective (energy cost, switching cost
//! `q_m|δ|`, and a concave scheduling utility `f_n`) over linear
//! constraints. With piecewise-linear concave `f_n` — the form the paper
//! derives from SLO penalty curves — the whole program is an LP once
//! the `|δ|` terms split into `δ⁺ + δ⁻` with `δ = δ⁺ - δ⁻`, both
//! non-negative.
//!
//! The solver stores the constraint matrix once in compressed sparse
//! column form and carries the basis inverse as an eta-file
//! factorization with periodic refactorization — per-iteration cost
//! proportional to the nonzero count, which is what lets CBS-RELAX
//! instances with thousands of columns solve inside one control period.
//! It prices with Dantzig's most-negative reduced cost (with an
//! automatic fallback to Bland's anti-cycling rule after a degeneracy
//! streak, so termination is preserved) and has a warm-start API —
//! [`Solution::basis`] carries the optimal [`Basis`] out, and
//! [`Problem::solve_warm_with`] re-solves a structurally identical
//! problem from it, skipping phase 1 (or repairing the restart point
//! with a short phase 1 when the new RHS moved against it). Everything
//! stays deterministic: the same problem, options, and warm basis always
//! take the same pivot sequence.
//!
//! A dense two-phase tableau, compiled only for tests, is the reference
//! oracle the engine's objectives are property-tested against.
//!
//! A successful solve always yields an optimal [`Solution`]; every
//! failure outcome — infeasible, unbounded, pivot budget exhausted,
//! malformed model — is an [`LpError`]. There is no status enum to
//! inspect on the success path.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2`:
//!
//! ```
//! use harmony_lp::{Problem, Sense};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
//! p.add_le(vec![(x, 1.0)], 2.0);
//! let sol = p.solve()?;
//! assert!((sol.objective() - 10.0).abs() < 1e-9);
//! assert!((sol.value(x) - 2.0).abs() < 1e-9);
//! assert!((sol.value(y) - 2.0).abs() < 1e-9);
//! # Ok::<(), harmony_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

#[cfg(test)]
mod dense;
mod error;
mod factor;
mod problem;
mod simplex;
mod sparse;

pub use error::LpError;
pub use problem::{Constraint, Problem, Relation, Sense, VarId};
pub use simplex::{Basis, SimplexOptions, Solution, WarmOutcome};
