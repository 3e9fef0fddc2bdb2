//! Checkpointed warm-start bases survive serialization:
//! `Solution::basis()` must round-trip through the `OnlineState.lp_basis`
//! checkpoint encoding bit-identically, and the restored basis must
//! warm-start the next CBS period as a hit that lands on the cold
//! objective to 1e-6 relative. (Agreement of the engine with the dense
//! tableau oracle on CBS-shaped LPs is checked inside `harmony-lp`.)

use harmony::cbs::{solve_cbs_relax_warm, CbsInputs};
use harmony::online::OnlineState;
use harmony::{HarmonyConfig, WarmOutcome};
use harmony_model::{EnergyPrice, MachineCatalog, Resources, SimDuration, SimTime};
use proptest::prelude::*;
use proptest::TestCaseError;

const REL_TOL: f64 = 1e-6;

fn config(horizon: usize) -> HarmonyConfig {
    HarmonyConfig { control_period: SimDuration::from_mins(10.0), horizon, ..Default::default() }
}

/// Wraps a basis the way the daemon checkpoints it and pushes it through
/// the full serde path (value tree → JSON text → value tree → state).
fn roundtrip_via_checkpoint(basis: &harmony_lp::Basis) -> harmony_lp::Basis {
    let state = OnlineState {
        ticks: 7,
        errors: 0,
        histories: vec![vec![0.25, 0.5]],
        last_plan: None,
        pending_events: Vec::new(),
        lp_basis: Some(basis.clone()),
        cost_dollars: 1.25,
    };
    let text = serde_json::to_string(&state).expect("checkpoint state serializes");
    let back: OnlineState = serde_json::from_str(&text).expect("checkpoint state deserializes");
    assert_eq!(back, state, "checkpoint round-trip must be bit-identical");
    back.lp_basis.expect("basis survives the round-trip")
}

fn objectives_agree(a: f64, b: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs())),
        "objectives disagree: {a} vs {b}"
    );
    Ok(())
}

/// `(sizes, utility, demand, demand2, initial)` — the raw ingredients
/// for a pair of CBS scenarios sharing one class catalog.
type Scenario = (Vec<Resources>, Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<f64>);

/// Random CBS scenarios with two demand periods of identical structure
/// (strictly positive demand keeps the LP's shape constant, so the
/// second period's solve is warm-startable from the first's basis).
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..4, 1usize..4).prop_flat_map(|(n_classes, horizon)| {
        let sizes = proptest::collection::vec(
            (0.01f64..0.4, 0.01f64..0.4).prop_map(|(c, m)| Resources::new(c, m)),
            n_classes,
        );
        let utility = proptest::collection::vec(0.05f64..2.0, n_classes);
        let demand = proptest::collection::vec(
            proptest::collection::vec(0.1f64..40.0, n_classes),
            horizon,
        );
        let demand2 = proptest::collection::vec(
            proptest::collection::vec(0.1f64..40.0, n_classes),
            horizon,
        );
        let initial = proptest::collection::vec(0.0f64..10.0, 4);
        (sizes, utility, demand, demand2, initial)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full deployment story in one property: solve a CBS instance
    /// cold, checkpoint its basis through `OnlineState` serde
    /// (bit-identical), then warm-start the next period's solve from the
    /// restored basis — what a restarted daemon does — and land on the
    /// cold objective as a warm-start hit. (The name predates the single
    /// engine. Proptest seeds its cases from the function name, so the
    /// name is kept to keep the sampled cases.)
    #[test]
    fn cbs_basis_roundtrips_and_warm_starts_both_backends(
        (sizes, utility, demand, demand2, initial) in scenario_strategy()
    ) {
        let catalog = MachineCatalog::table2().scaled(100);
        let initial: Vec<f64> = initial
            .iter()
            .zip(catalog.iter())
            .map(|(v, ty)| v.min(ty.count as f64))
            .collect();
        let price = EnergyPrice::default();
        fn make<'a>(
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
        let cfg = config(demand.len());

        let first = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand, &initial, &price),
            &cfg,
            None,
        )
        .unwrap();
        prop_assert_eq!(first.warm_outcome, WarmOutcome::Cold);
        prop_assert!(first.lp_vars > 0 && first.lp_constraints > 0);

        let restored = roundtrip_via_checkpoint(&first.basis);
        prop_assert_eq!(&restored, &first.basis);

        // Next period: same structure, moved demand. Warm from the
        // restored checkpoint basis; a cold solve is the reference.
        let cold2 = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand2, &initial, &price),
            &cfg,
            None,
        )
        .unwrap();
        let warm = solve_cbs_relax_warm(
            &make(&catalog, &sizes, &utility, &demand2, &initial, &price),
            &cfg,
            Some(&restored),
        )
        .unwrap();
        objectives_agree(warm.plan.objective, cold2.plan.objective)?;
        prop_assert_eq!(warm.warm_outcome, WarmOutcome::Hit);
        prop_assert!(warm.warm_started);
    }
}

/// A basis that kept an artificial variable (redundant equality rows)
/// checkpoints fine but must be *rejected* on re-install, classified as
/// a structural fallback, still reaching the optimum. (The name predates
/// the single engine.)
#[test]
fn redundant_row_basis_survives_checkpoint_but_is_rejected_by_both_backends() {
    use harmony_lp::{Problem, Sense, SimplexOptions};

    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
    // The duplicated equality row leaves one artificial basic at zero.
    p.add_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    p.add_eq(vec![(x, 1.0), (y, 1.0)], 4.0);
    let first = p.solve().unwrap();
    let n_cols = first.basis().num_cols();
    assert!(
        first.basis().columns().iter().any(|&j| j >= n_cols),
        "test premise: an artificial stayed basic"
    );

    let restored = roundtrip_via_checkpoint(first.basis());
    assert_eq!(&restored, first.basis());

    let warm = p.solve_warm_with(&SimplexOptions::default(), Some(&restored)).unwrap();
    assert_eq!(warm.warm_outcome(), WarmOutcome::StructuralFallback);
    assert!(!warm.warm_started());
    assert!((warm.objective() - first.objective()).abs() < 1e-9);
}
