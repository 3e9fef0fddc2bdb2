//! LP model construction.

use serde::{Deserialize, Serialize};

use crate::simplex::{Basis, SimplexOptions, Solution};
use crate::sparse::solve_sparse;
use crate::LpError;

/// Handle to a decision variable within a [`Problem`].
///
/// The `Default` value is variable 0 — useful for pre-sizing id matrices
/// that are filled in afterwards.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable within its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

/// A linear constraint `Σ aᵢxᵢ (≤|≥|=) rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse `(variable, coefficient)` terms. Duplicate variables are
    /// allowed; their coefficients sum.
    pub terms: Vec<(VarId, f64)>,
    /// The relation between the expression and `rhs`.
    pub relation: Relation,
    /// The right-hand side.
    pub rhs: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

/// A linear program under construction.
///
/// Variables carry bounds `[lb, ub]` (either may be infinite) and an
/// objective coefficient; constraints are added with [`Problem::add_le`],
/// [`Problem::add_ge`], [`Problem::add_eq`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem { sense, vars: Vec::new(), constraints: Vec::new() }
    }

    /// Adds a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for unbounded
    /// sides.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is non-finite, a bound is NaN, or `lb > ub` —
    /// these are programming errors in model construction.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        let name = name.into();
        assert!(obj.is_finite(), "objective coefficient for {name:?} must be finite");
        assert!(!lb.is_nan() && !ub.is_nan(), "bounds for {name:?} must not be NaN");
        assert!(lb <= ub, "variable {name:?} has empty domain [{lb}, {ub}]");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { name, lb, ub, obj });
        id
    }

    /// Overwrites the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem or `obj` is
    /// non-finite.
    pub fn set_objective(&mut self, var: VarId, obj: f64) {
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.vars[var.0].obj = obj;
    }

    /// Adds `Σ aᵢxᵢ ≤ rhs`.
    pub fn add_le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(Constraint { terms, relation: Relation::Le, rhs });
    }

    /// Adds `Σ aᵢxᵢ ≥ rhs`.
    pub fn add_ge(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(Constraint { terms, relation: Relation::Ge, rhs });
    }

    /// Adds `Σ aᵢxᵢ = rhs`.
    pub fn add_eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) {
        self.add_constraint(Constraint { terms, relation: Relation::Eq, rhs });
    }

    /// Adds a pre-built constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references a variable that does not
    /// belong to this problem, or contains a non-finite coefficient or
    /// right-hand side.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert!(c.rhs.is_finite(), "constraint rhs must be finite");
        for (v, a) in &c.terms {
            assert!(v.0 < self.vars.len(), "constraint references unknown variable {}", v.0);
            assert!(a.is_finite(), "constraint coefficient must be finite");
        }
        self.constraints.push(c);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The name a variable was created with.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// Solves with default [`SimplexOptions`].
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`] depending on the outcome.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves with explicit options.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`].
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<Solution, LpError> {
        solve_sparse(self, options, None)
    }

    /// Solves, warm-starting from a previous solve's optimal [`Basis`]
    /// when one is given.
    ///
    /// The intended caller is a control loop re-solving the same model
    /// with updated costs or right-hand sides each period: pass the
    /// [`crate::Solution::basis`] of the previous period's solution and
    /// the solver restarts from that basis — skipping phase 1 when the
    /// restart point is still feasible, or repairing it with a phase 1
    /// restricted to the rows the new right-hand side violates. When the
    /// basis no longer fits — the model's standardized dimensions changed
    /// or the basis is singular for the new coefficients — the solver
    /// silently falls back to the cold two-phase path;
    /// [`crate::Solution::warm_started`] reports which path ran.
    /// `solve_warm_with(opts, None)` is exactly `solve_with(opts)`.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`]. Fallback covers *unusable* bases only:
    /// genuine infeasibility or unboundedness of the problem itself is
    /// still reported as an error.
    pub fn solve_warm_with(
        &self,
        options: &SimplexOptions,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        solve_sparse(self, options, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0, 1.0);
        let y = p.add_var("y", -1.0, f64::INFINITY, 2.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(x.index(), 0);
        assert_eq!(p.var_name(y), "y");
        p.add_le(vec![(x, 1.0), (y, 1.0)], 5.0);
        assert_eq!(p.num_constraints(), 1);
        p.set_objective(x, 3.0);
        assert_eq!(p.vars[0].obj, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 2.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_objective_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 0.0, 1.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_in_constraint_panics() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_le(vec![(VarId(3), 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "rhs must be finite")]
    fn infinite_rhs_panics() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 0.0);
        p.add_le(vec![(x, 1.0)], f64::INFINITY);
    }
}
