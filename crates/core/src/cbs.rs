//! The CBS-RELAX provisioning program (Section VII, Eq. 14–16).
//!
//! Decision variables over an MPC horizon `t = 0..W`:
//!
//! * `z_mt ∈ [0, N_m]` — fractional active machines of type `m`;
//! * `x_mnt ≥ 0` — containers of class `n` assigned to machines of type
//!   `m` (only for compatible pairs: the container fits the machine);
//! * `δ⁺_mt, δ⁻_mt ≥ 0` — machines switched on/off, linearizing the
//!   `q_m|δ|` switching cost.
//!
//! Objective (maximize):
//!
//! ```text
//!   Σ_t Σ_n f_n(Σ_m x_mnt)                       scheduling utility
//! − Σ_t p_t·Δt [ Σ_m z_mt·E_idle,m + Σ_{m,n} (Σ_r α_mr c_nr / C_mr) x_mnt ]
//! − Σ_t Σ_m q_m (δ⁺_mt + δ⁻_mt)                  switching cost
//! ```
//!
//! subject to the state equations `z_{m,t} = z_{m,t-1} + δ⁺ − δ⁻`, the
//! capacity constraints `Σ_n ω c_nr x_mnt ≤ C_mr z_mt` (Eq. 16/17), and
//! one demand cap `Σ_m x_mnt ≤ N_nt` per class and step. The linear
//! `f_n` is its slope on every `x_mnt` column, so this is exactly an LP,
//! solved by `harmony-lp`, whose rows and columns do not depend on the
//! forecast.

use harmony_lp::{Problem, Sense, VarId};
use harmony_model::{
    EnergyPrice, MachineCatalog, MachineTypeId, Resources, SimTime, NUM_RESOURCES,
};
use harmony_telemetry::keys;

use crate::{HarmonyConfig, HarmonyError};

/// Inputs to one CBS-RELAX solve.
#[derive(Debug, Clone)]
pub struct CbsInputs<'a> {
    /// The machine catalog (`M`, `C_mr`, `E_idle`, `α`, `q_m`, `N_m`).
    pub catalog: &'a MachineCatalog,
    /// Container size `c_n` per class.
    pub container_sizes: &'a [Resources],
    /// Utility slope per class in dollars per container-hour.
    pub utility_per_hour: &'a [f64],
    /// Predicted container demand `N_nt`: `demand[t][n]` containers.
    pub demand: &'a [Vec<f64>],
    /// Active machines per type at the start of the horizon.
    pub initial_active: &'a [f64],
    /// Electricity price curve.
    pub price: &'a EnergyPrice,
    /// Wall-clock start of the horizon (for `p_t`).
    pub now: SimTime,
}

/// The fractional provisioning plan returned by a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CbsPlan {
    /// `z[t][m]`: fractional active machines.
    pub z: Vec<Vec<f64>>,
    /// `x[t][m][n]`: fractional container assignments.
    pub x: Vec<Vec<Vec<f64>>>,
    /// Objective value in dollars over the horizon.
    pub objective: f64,
}

impl CbsPlan {
    /// The first-step (to be actuated now) fractional machine counts.
    pub fn first_step_machines(&self) -> &[f64] {
        &self.z[0]
    }

    /// The first-step fractional container quota matrix `x[m][n]`.
    pub fn first_step_quotas(&self) -> &[Vec<f64>] {
        &self.x[0]
    }
}

/// One CBS-RELAX solve with its warm-start bookkeeping: the plan, the
/// optimal basis to warm-start the next period's solve from, and how
/// this solve ran.
#[derive(Debug, Clone)]
pub struct CbsSolve {
    /// The fractional provisioning plan.
    pub plan: CbsPlan,
    /// The optimal simplex basis, to pass as `warm` next period.
    pub basis: harmony_lp::Basis,
    /// How the warm-start attempt resolved — `Hit` when the solver
    /// restarted from the supplied basis, one of the two fallback kinds,
    /// or `Cold` when no basis was supplied (see
    /// [`harmony_lp::WarmOutcome`]).
    pub warm_outcome: harmony_lp::WarmOutcome,
    /// Simplex pivots this solve took (phase 1 + phase 2).
    pub pivots: usize,
    /// Decision variables in the LP the solve built (before
    /// standardization), for capacity planning and benchmarks.
    pub lp_vars: usize,
    /// Constraint rows in the LP the solve built.
    pub lp_constraints: usize,
}

/// Solves CBS-RELAX cold.
///
/// Convenience wrapper over [`solve_cbs_relax_warm`] without a basis;
/// control loops that re-solve every period should prefer the warm
/// variant and thread [`CbsSolve::basis`] across ticks.
///
/// # Errors
///
/// * [`HarmonyError::InvalidConfig`] for inconsistent input shapes.
/// * [`HarmonyError::Optimization`] if the LP solve fails.
pub fn solve_cbs_relax(
    inputs: &CbsInputs<'_>,
    config: &HarmonyConfig,
) -> Result<CbsPlan, HarmonyError> {
    Ok(solve_cbs_relax_warm(inputs, config, None)?.plan)
}

/// Solves CBS-RELAX, warm-starting from a previous period's optimal
/// basis when one is supplied.
///
/// Successive MPC ticks build the same LP structure with updated
/// forecast right-hand sides and price-dependent costs — a demand that
/// hits zero only zeroes its cap's right-hand side — so the previous
/// basis usually remains primal-feasible and the solve skips phase 1
/// entirely. Only a change of classes or compatibility changes the
/// LP's dimensions; the solver then falls back to a cold
/// solve transparently. [`CbsSolve::warm_outcome`]
/// says which path ran, mirrored by three mutually exclusive counters:
/// `lp.warm_start_hits` (restarted from the basis, including in-place
/// repairs), `lp.warm_start_repair_fallbacks` (basis installed but the
/// repair phase could not reach feasibility), and
/// `lp.warm_start_structural_fallbacks` (basis rejected outright —
/// dimension mismatch, kept artificial, or singular).
///
/// # Errors
///
/// * [`HarmonyError::InvalidConfig`] for inconsistent input shapes.
/// * [`HarmonyError::Optimization`] if the LP solve fails.
#[expect(
    clippy::needless_range_loop,
    reason = "Index loops mirror the x[t][m][n] variable grid; iterators would obscure the LP structure."
)]
pub fn solve_cbs_relax_warm(
    inputs: &CbsInputs<'_>,
    config: &HarmonyConfig,
    warm: Option<&harmony_lp::Basis>,
) -> Result<CbsSolve, HarmonyError> {
    let m_types = inputs.catalog.len();
    let n_classes = inputs.container_sizes.len();
    let horizon = inputs.demand.len();
    if horizon == 0 {
        return Err(HarmonyError::InvalidConfig { reason: "empty demand horizon".into() });
    }
    if inputs.initial_active.len() != m_types {
        return Err(HarmonyError::InvalidConfig {
            reason: "initial_active length must match machine types".into(),
        });
    }
    for (t, d) in inputs.demand.iter().enumerate() {
        if d.len() != n_classes {
            return Err(HarmonyError::InvalidConfig {
                reason: format!("demand[{t}] length must match classes"),
            });
        }
        if d.iter().any(|n| !n.is_finite()) {
            return Err(lp_input_error("demand"));
        }
    }
    if inputs.utility_per_hour.len() != n_classes {
        return Err(HarmonyError::InvalidConfig {
            reason: "utility length must match classes".into(),
        });
    }
    let period_hours = config.control_period.as_hours();
    let mut p = Problem::new(Sense::Maximize);

    // Compatibility: which machine types can host which containers.
    let compatible: Vec<Vec<bool>> = (0..m_types)
        .map(|m| {
            let ty = inputs.catalog.machine_type(MachineTypeId(m));
            (0..n_classes).map(|n| inputs.container_sizes[n].fits_within(ty.capacity)).collect()
        })
        .collect();

    // The utility every assigned container earns per hour (Eq. 14's f_n).
    if inputs.utility_per_hour.iter().any(|s| !s.is_finite()) {
        return Err(lp_input_error("utility slope"));
    }

    // Variables.
    let mut z = vec![vec![VarId::default(); m_types]; horizon];
    let mut x = vec![vec![vec![None::<VarId>; n_classes]; m_types]; horizon];
    let mut dp = vec![vec![VarId::default(); m_types]; horizon];
    let mut dm = vec![vec![VarId::default(); m_types]; horizon];

    for t in 0..horizon {
        let time = inputs.now + config.control_period * t as f64;
        let price = inputs.price.price_at(time); // $/kWh
        for m in 0..m_types {
            let ty = inputs.catalog.machine_type(MachineTypeId(m));
            // Energy cost of keeping one machine idle for one period.
            let idle_cost = price * ty.power.idle_watts / 1000.0 * period_hours;
            z[t][m] = p.add_var(0.0, ty.count as f64, -idle_cost);
            dp[t][m] = p.add_var(0.0, f64::INFINITY, -ty.switching_cost);
            dm[t][m] = p.add_var(0.0, f64::INFINITY, -ty.switching_cost);
            for n in 0..n_classes {
                if !compatible[m][n] {
                    continue;
                }
                // Marginal energy of hosting one class-n container on a
                // type-m machine for one period (Eq. 7's α term).
                let c = inputs.container_sizes[n];
                let util = c.utilization_of(ty.capacity);
                let watts =
                    ty.power.alpha_watts.cpu * util.cpu + ty.power.alpha_watts.mem * util.mem;
                let energy_cost = price * watts / 1000.0 * period_hours;
                let utility = inputs.utility_per_hour[n] * period_hours;
                x[t][m][n] = Some(p.add_var(0.0, f64::INFINITY, utility - energy_cost));
            }
        }
    }

    // Rows, step by step: demand caps, then state equations and
    // capacity constraints.
    for t in 0..horizon {
        // One demand cap Σ_m x_mnt ≤ N_nt per class with a compatible
        // type, zero demand or not, so the rows and columns depend only
        // on (classes, types, horizon, compatibility) and a basis carries
        // over whatever the forecast does.
        for n in 0..n_classes {
            let terms: Vec<(VarId, f64)> =
                (0..m_types).filter_map(|m| x[t][m][n].map(|v| (v, 1.0))).collect();
            if terms.is_empty() {
                continue;
            }
            p.add_le(terms, inputs.demand[t][n].max(0.0));
        }
        for m in 0..m_types {
            // z_mt - z_{m,t-1} - δ⁺ + δ⁻ = 0  (z_{-1} = initial_active).
            let mut terms = vec![(z[t][m], 1.0), (dp[t][m], -1.0), (dm[t][m], 1.0)];
            let rhs = if t == 0 {
                inputs.initial_active[m]
            } else {
                terms.push((z[t - 1][m], -1.0));
                0.0
            };
            p.add_eq(terms, rhs);

            // Capacity per resource: Σ_n ω c_nr x ≤ C_mr z  (Eq. 17).
            let ty = inputs.catalog.machine_type(MachineTypeId(m));
            let cap = ty.capacity;
            for r in 0..NUM_RESOURCES {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for n in 0..n_classes {
                    if let Some(v) = x[t][m][n] {
                        terms.push((v, config.omega * inputs.container_sizes[n][r]));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                terms.push((z[t][m], -cap[r]));
                p.add_le(terms, 0.0);
            }
        }
    }

    // Provisioning runs once per control period; a hard pivot cap keeps
    // a pathological instance from stalling the controller (the error
    // path walks the degradation ladder instead).
    let options =
        harmony_lp::SimplexOptions { max_pivots: Some(config.max_lp_pivots), ..Default::default() };
    let lp_vars = p.num_vars();
    let lp_constraints = p.num_constraints();
    let solution = p.solve_warm_with(&options, warm).map_err(|e| {
        harmony_telemetry::global().counter(keys::LP_FAILURES).inc();
        HarmonyError::Optimization(e)
    })?;
    let registry = harmony_telemetry::global();
    registry.counter(keys::LP_SOLVES).inc();
    registry.counter(keys::LP_PIVOTS).add(solution.pivots() as u64);
    registry.counter(keys::LP_PHASE1_PIVOTS).add(solution.phase1_pivots() as u64);
    // Fetch all three warm-start counters eagerly so every name exists in
    // every snapshot (a dashboard summing hits plus both fallback kinds
    // should never see a missing key), then bump the one that applies.
    // The three are mutually exclusive and, over solves that were handed
    // a basis, exhaustive.
    let hits = registry.counter(keys::LP_WARM_START_HITS);
    let repair_fallbacks = registry.counter(keys::LP_WARM_START_REPAIR_FALLBACKS);
    let structural_fallbacks = registry.counter(keys::LP_WARM_START_STRUCTURAL_FALLBACKS);
    match solution.warm_outcome() {
        harmony_lp::WarmOutcome::Cold => {}
        harmony_lp::WarmOutcome::Hit => hits.inc(),
        harmony_lp::WarmOutcome::RepairFallback => repair_fallbacks.inc(),
        harmony_lp::WarmOutcome::StructuralFallback => structural_fallbacks.inc(),
    }

    let z_out: Vec<Vec<f64>> =
        z.iter().map(|row| row.iter().map(|&v| solution.value(v).max(0.0)).collect()).collect();
    let x_out: Vec<Vec<Vec<f64>>> = x
        .iter()
        .map(|per_m| {
            per_m
                .iter()
                .map(|per_n| {
                    per_n.iter().map(|v| v.map_or(0.0, |v| solution.value(v).max(0.0))).collect()
                })
                .collect()
        })
        .collect();
    Ok(CbsSolve {
        plan: CbsPlan { z: z_out, x: x_out, objective: solution.objective() },
        basis: solution.basis().clone(),
        warm_outcome: solution.warm_outcome(),
        pivots: solution.pivots(),
        lp_vars,
        lp_constraints,
    })
}

/// A non-finite or non-concave utility or demand input, reported as the
/// LP input error it would otherwise become.
fn lp_input_error(context: &'static str) -> HarmonyError {
    HarmonyError::Optimization(harmony_lp::LpError::NonFiniteInput { context })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::SimDuration;

    fn config() -> HarmonyConfig {
        HarmonyConfig {
            control_period: SimDuration::from_mins(10.0),
            horizon: 2,
            omega: 1.0,
            ..Default::default()
        }
    }

    fn catalog() -> MachineCatalog {
        MachineCatalog::table2().scaled(100) // 70/15/10/5 machines
    }

    #[test]
    fn zero_demand_turns_everything_off() {
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.05)];
        let utility = vec![0.5];
        let demand = vec![vec![0.0], vec![0.0]];
        let initial = vec![10.0, 5.0, 2.0, 1.0];
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &config(),
        )
        .unwrap();
        // With zero demand, paying idle energy is pure loss... but
        // switching off also costs. Horizon 2 with cheap switching →
        // machines go to (near) zero by the end.
        let final_total: f64 = plan.z.last().unwrap().iter().sum();
        assert!(final_total < 1.0, "machines should power down, got {final_total}");
    }

    #[test]
    fn demand_brings_capacity_up_and_prefers_cheap_hosts() {
        let catalog = catalog();
        // Containers of 0.05 CPU / 0.03 mem fit every type including the
        // R210.
        let sizes = vec![Resources::new(0.05, 0.03)];
        let utility = vec![1.0];
        let demand = vec![vec![20.0], vec![20.0]];
        let initial = vec![0.0; 4];
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &config(),
        )
        .unwrap();
        let assigned: f64 = plan.x[0].iter().map(|per_n| per_n[0]).sum();
        assert!(assigned > 19.0, "demand should be served, got {assigned}");
        // At bulk scale the DL585 G7 amortizes idle power over 20
        // containers per machine and is the cheapest feasible host; the
        // LP should concentrate the assignment there. (Small machines
        // win only for trickle loads after integer rounding — see the
        // rounding tests.)
        let per_container_cost = |m: usize| {
            let ty = catalog.machine_type(harmony_model::MachineTypeId(m));
            let util = sizes[0].utilization_of(ty.capacity);
            let marginal =
                ty.power.alpha_watts.cpu * util.cpu + ty.power.alpha_watts.mem * util.mem;
            let per_machine = (ty.capacity.cpu / sizes[0].cpu).min(ty.capacity.mem / sizes[0].mem);
            marginal + ty.power.idle_watts / per_machine
        };
        let cheapest = (0..4)
            .filter(|&m| {
                sizes[0].fits_within(catalog.machine_type(harmony_model::MachineTypeId(m)).capacity)
            })
            .min_by(|&a, &b| per_container_cost(a).total_cmp(&per_container_cost(b)))
            .unwrap();
        assert!(
            plan.x[0][cheapest][0] > assigned * 0.5,
            "cheapest host (type {cheapest}) should carry the bulk: {:?}",
            plan.x[0]
        );
        assert!(plan.objective > 0.0);
    }

    #[test]
    fn big_containers_skip_small_machines() {
        let catalog = catalog();
        // 0.3 CPU does not fit the R210 (0.083) or R515 (0.25).
        let sizes = vec![Resources::new(0.3, 0.1)];
        let utility = vec![2.0];
        let demand = vec![vec![4.0]];
        let initial = vec![0.0; 4];
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &config(),
        )
        .unwrap();
        assert_eq!(plan.x[0][0][0], 0.0);
        assert_eq!(plan.x[0][1][0], 0.0);
        let hosted = plan.x[0][2][0] + plan.x[0][3][0];
        assert!(hosted > 3.9, "large types must host the containers, got {hosted}");
    }

    #[test]
    fn capacity_constraint_binds() {
        let catalog = MachineCatalog::table2().scaled(2500); // 3/1/1/1
        let sizes = vec![Resources::new(0.04, 0.03)];
        let utility = vec![10.0];
        // Demand far beyond the whole cluster.
        let demand = vec![vec![10_000.0]];
        let initial = vec![0.0; 4];
        let cfg = config();
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &cfg,
        )
        .unwrap();
        // Machines are capped by the population.
        for (m, &zv) in plan.z[0].iter().enumerate() {
            let count = catalog.machine_type(harmony_model::MachineTypeId(m)).count as f64;
            assert!(zv <= count + 1e-6, "z[{m}] = {zv} exceeds population {count}");
        }
        // And assignments respect Σ ω c x ≤ C z per type/resource.
        for m in 0..catalog.len() {
            let cap = catalog.machine_type(harmony_model::MachineTypeId(m)).capacity;
            let used_cpu = plan.x[0][m][0] * sizes[0].cpu * cfg.omega;
            assert!(used_cpu <= cap.cpu * plan.z[0][m] + 1e-6);
        }
    }

    #[test]
    fn switching_cost_smooths_the_plan() {
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03)];
        let utility = vec![0.8];
        // Demand spike in period 0 only.
        let demand = vec![vec![30.0], vec![0.0], vec![0.0]];
        let initial = vec![0.0; 4];
        let mut cheap_switch = config();
        cheap_switch.horizon = 3;
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            },
            &cheap_switch,
        )
        .unwrap();
        let t0: f64 = plan.z[0].iter().sum();
        let t2: f64 = plan.z[2].iter().sum();
        assert!(t0 > 0.0, "capacity must come up for the spike");
        assert!(t2 < t0, "capacity should decay after the spike");
    }

    #[test]
    fn time_of_use_price_defers_low_value_work() {
        // Hour 0 is peak-priced, hour 1 off-peak. The class utility sits
        // between the two marginal energy costs, so the LP serves demand
        // only in the cheap period.
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03)];
        let demand = vec![vec![10.0], vec![10.0]];
        let initial = vec![0.0; 4];
        let price = EnergyPrice::TimeOfUse {
            peak: 2.0,      // $/kWh, absurdly high: serving at peak loses money
            off_peak: 0.01, // serving off-peak is nearly free
            peak_start_hour: 0.0,
            peak_end_hour: 1.0,
        };
        let mut cfg = config();
        cfg.control_period = SimDuration::from_hours(1.0);
        cfg.horizon = 2;
        // Marginal energy per container-hour on the cheapest host is
        // tens of watts → peak cost ~0.1 $/h, off-peak ~0.0005 $/h.
        let utility = vec![0.02];
        let plan = solve_cbs_relax(
            &CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &demand,
                initial_active: &initial,
                price: &price,
                now: SimTime::ZERO,
            },
            &cfg,
        )
        .unwrap();
        let served_peak: f64 = plan.x[0].iter().map(|per_n| per_n[0]).sum();
        let served_cheap: f64 = plan.x[1].iter().map(|per_n| per_n[0]).sum();
        assert!(served_peak < 0.5, "peak-period work should be deferred: {served_peak}");
        assert!(served_cheap > 9.0, "off-peak period should serve: {served_cheap}");
    }

    #[test]
    fn warm_resolve_matches_cold_and_saves_pivots() {
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03)];
        let utility = vec![1.0];
        let initial = vec![0.0; 4];
        let cfg = config();
        let price = EnergyPrice::default();
        let demand_20 = vec![vec![20.0], vec![20.0]];
        let demand_24 = vec![vec![24.0], vec![24.0]];
        fn inputs<'a>(
            catalog: &'a MachineCatalog,
            sizes: &'a [Resources],
            utility: &'a [f64],
            demand: &'a [Vec<f64>],
            initial: &'a [f64],
            price: &'a EnergyPrice,
        ) -> CbsInputs<'a> {
            CbsInputs {
                catalog,
                container_sizes: sizes,
                utility_per_hour: utility,
                demand,
                initial_active: initial,
                price,
                now: SimTime::ZERO,
            }
        }
        let first = solve_cbs_relax_warm(
            &inputs(&catalog, &sizes, &utility, &demand_20, &initial, &price),
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(first.warm_outcome, harmony_lp::WarmOutcome::Cold);
        // Next tick: same structure, perturbed demand.
        let cold = solve_cbs_relax_warm(
            &inputs(&catalog, &sizes, &utility, &demand_24, &initial, &price),
            &cfg,
            None,
        )
        .unwrap();
        let warm = solve_cbs_relax_warm(
            &inputs(&catalog, &sizes, &utility, &demand_24, &initial, &price),
            &cfg,
            Some(&first.basis),
        )
        .unwrap();
        assert_eq!(
            warm.warm_outcome,
            harmony_lp::WarmOutcome::Hit,
            "same-structure re-solve must warm start"
        );
        assert!(
            (warm.plan.objective - cold.plan.objective).abs()
                < 1e-6 * (1.0 + cold.plan.objective.abs()),
            "warm {} vs cold {}",
            warm.plan.objective,
            cold.plan.objective
        );
        assert!(
            warm.pivots < cold.pivots,
            "warm restart must save pivots: {} vs {}",
            warm.pivots,
            cold.pivots
        );
    }

    #[test]
    fn demand_crossing_zero_keeps_structure_and_warm_hits() {
        // A forecast hitting zero only zeroes its cap's right-hand side:
        // the LP keeps its dimensions and the previous basis restarts it.
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03)];
        let utility = vec![1.0];
        let initial = vec![5.0, 0.0, 0.0, 0.0];
        let cfg = config();
        let solve = |demand: f64, warm: Option<&harmony_lp::Basis>| {
            let inputs = CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &utility,
                demand: &[vec![demand], vec![demand]],
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            };
            solve_cbs_relax_warm(&inputs, &cfg, warm).unwrap()
        };
        let busy = solve(20.0, None);
        let idle = solve(0.0, Some(&busy.basis));
        let busy_again = solve(20.0, Some(&idle.basis));
        for (warm, demand) in [(&idle, 0.0), (&busy_again, 20.0)] {
            assert_eq!(
                (warm.lp_vars, warm.lp_constraints),
                (busy.lp_vars, busy.lp_constraints),
                "demand {demand} changed the LP's dimensions"
            );
            assert_eq!(warm.warm_outcome, harmony_lp::WarmOutcome::Hit, "{demand}");
            let cold = solve(demand, None).plan.objective;
            assert!(
                (warm.plan.objective - cold).abs() < 1e-6 * (1.0 + cold.abs()),
                "warm {} vs cold {cold} at demand {demand}",
                warm.plan.objective
            );
        }
    }

    #[test]
    fn a_class_with_no_demand_changes_nothing() {
        // Metamorphic: appending a class whose demand is zero at every
        // step leaves the optimum and the machine plan where they were,
        // however much its containers would be worth.
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03), Resources::new(0.2, 0.1)];
        let utility = vec![1.0, 0.6];
        let demand = vec![vec![30.0, 6.0], vec![24.0, 8.0], vec![18.0, 10.0]];
        let initial = vec![2.0, 0.0, 1.0, 0.0];
        let mut cfg = config();
        cfg.horizon = 3;
        let solve = |sizes: &[Resources], utility: &[f64], demand: &[Vec<f64>]| {
            let inputs = CbsInputs {
                catalog: &catalog,
                container_sizes: sizes,
                utility_per_hour: utility,
                demand,
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            };
            solve_cbs_relax(&inputs, &cfg).unwrap()
        };
        let mut sizes_plus = sizes.clone();
        sizes_plus.push(Resources::new(0.05, 0.05));
        let mut utility_plus = utility.clone();
        utility_plus.push(50.0);
        let demand_plus: Vec<Vec<f64>> =
            demand.iter().map(|row| row.iter().copied().chain([0.0]).collect()).collect();
        let base = solve(&sizes, &utility, &demand);
        let plus = solve(&sizes_plus, &utility_plus, &demand_plus);
        assert!(
            (plus.objective - base.objective).abs() <= 1e-9 * base.objective.abs(),
            "{} vs {}",
            plus.objective,
            base.objective
        );
        for (t, (zb, zp)) in base.z.iter().zip(&plus.z).enumerate() {
            for (m, (b, p)) in zb.iter().zip(zp).enumerate() {
                assert!((b - p).abs() < 1e-9, "z[{t}][{m}] {b} vs {p}");
            }
        }
        assert!(plus.x.iter().flatten().all(|per_n| per_n[2] < 1e-9));
    }

    #[test]
    fn non_finite_utility_or_demand_is_rejected() {
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.03)];
        let initial = vec![0.0; 4];
        let solve = |utility: f64, demand: f64| {
            let inputs = CbsInputs {
                catalog: &catalog,
                container_sizes: &sizes,
                utility_per_hour: &[utility],
                demand: &[vec![demand]],
                initial_active: &initial,
                price: &EnergyPrice::default(),
                now: SimTime::ZERO,
            };
            solve_cbs_relax(&inputs, &config())
        };
        for result in [solve(f64::NAN, 5.0), solve(1.0, f64::INFINITY)] {
            assert!(matches!(result, Err(HarmonyError::Optimization(_))), "{result:?}");
        }
    }

    #[test]
    fn shape_validation() {
        let catalog = catalog();
        let sizes = vec![Resources::new(0.05, 0.05)];
        let utility = vec![1.0];
        let inputs = CbsInputs {
            catalog: &catalog,
            container_sizes: &sizes,
            utility_per_hour: &utility,
            demand: &[],
            initial_active: &[0.0; 4],
            price: &EnergyPrice::default(),
            now: SimTime::ZERO,
        };
        assert!(matches!(
            solve_cbs_relax(&inputs, &config()),
            Err(HarmonyError::InvalidConfig { .. })
        ));
        let bad_initial = CbsInputs { demand: &[vec![1.0]], initial_active: &[0.0; 2], ..inputs };
        assert!(solve_cbs_relax(&bad_initial, &config()).is_err());
    }
}
