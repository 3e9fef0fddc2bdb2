//! Hot-path performance benchmark (DESIGN.md §10): cold vs warm-started
//! CBS-RELAX solves, and serial vs parallel per-class pipeline.
//!
//! Two experiments, both asserted in-process and written to
//! `results/BENCH_provisioning_perf.json`:
//!
//! 1. **LP warm start.** A chain of MPC-style solves whose demand
//!    right-hand sides drift tick to tick. The cold pass solves each
//!    tick from scratch; the warm pass threads the previous optimal
//!    basis through. Warm must use no more total pivots than cold, and
//!    strictly fewer whenever any restart actually took.
//! 2. **Pipeline fan-out.** Two identical [`OnlinePipeline`]s driven
//!    over the same trace, one with `pipeline_workers = Some(1)` and
//!    one with the automatic worker count. Their integer plans must be
//!    bit-identical.
//! 3. **Backend scaling curve.** Cold CBS-RELAX solves of growing
//!    synthetic instances on the sparse revised simplex and the dense
//!    tableau oracle. Where dense completes, objectives must agree to
//!    1e-6 relative and sparse must not lose at the largest point; at
//!    instances past ~5k variables the dense engine is run under an
//!    escalating pivot cap just long enough to establish a wall-clock
//!    *lower bound*, and sparse must win by at least 5× against that
//!    bound while finishing inside one control period.
//!
//! `--quick` (or `HARMONY_SCALE=quick`) shrinks all experiments to
//! CI-smoke size (the scaling curve then stops at sizes the dense
//! engine can finish).

use std::time::Instant;

use harmony::cbs::{solve_cbs_relax_warm, CbsInputs};
use harmony::classify::TaskClassifier;
use harmony::containers::ContainerManager;
use harmony::{HarmonyConfig, OnlinePipeline};
use harmony_bench::json::write_bench_json;
use harmony_bench::{evaluation_setup, fmt, section, table, Scale};
use harmony_model::{EnergyPrice, Resources, SimTime, TaskClassId};
use serde::value::Value;

struct LpTick {
    cold_pivots: usize,
    warm_pivots: usize,
    warm_started: bool,
}

/// One MPC tick's inputs, recorded up front so the timed cold and warm
/// passes replay byte-identical problems.
struct TickInputs {
    demand: Vec<Vec<f64>>,
    initial: Vec<f64>,
    now: SimTime,
}

struct LpResult {
    ticks: Vec<LpTick>,
    cold_seconds: f64,
    warm_seconds: f64,
}

/// Deterministic per-tick demand drift: positive everywhere so the LP
/// structure (and therefore the basis shape) is stable across ticks.
/// Demand grows slowly with a per-entry wobble — the MPC regime, where
/// consecutive forecasts differ by a few percent and the previous basis
/// either restarts directly or needs only a local feasibility repair.
fn demand_at(tick: usize, horizon: usize, base: &[f64]) -> Vec<Vec<f64>> {
    let growth = 1.0 + 0.04 * tick as f64;
    (0..horizon)
        .map(|t| {
            base.iter()
                .enumerate()
                .map(|(n, &b)| {
                    let wobble = ((tick * 3 + t * 2 + n) % 11) as f64 / 10.0 - 0.5;
                    (b * growth * (1.0 + 0.1 * wobble)).max(1.0)
                })
                .collect()
        })
        .collect()
}

fn lp_experiment(
    inputs_seq: &[TickInputs],
    template: &CbsInputs<'_>,
    config: &HarmonyConfig,
) -> LpResult {
    let solve =
        |demand: &[Vec<f64>], initial: &[f64], now: SimTime, warm: Option<&harmony_lp::Basis>| {
            solve_cbs_relax_warm(
                &CbsInputs {
                    demand,
                    initial_active: initial,
                    now,
                    ..template.clone()
                },
                config,
                warm,
            )
            .expect("benchmark LP must solve")
        };

    let cold_clock = Instant::now();
    let cold: Vec<_> = inputs_seq
        .iter()
        .map(|t| solve(&t.demand, &t.initial, t.now, None))
        .collect();
    let cold_seconds = cold_clock.elapsed().as_secs_f64();

    let warm_clock = Instant::now();
    let mut basis = None;
    let mut warm = Vec::with_capacity(inputs_seq.len());
    for t in inputs_seq {
        let s = solve(&t.demand, &t.initial, t.now, basis.as_ref());
        basis = Some(s.basis.clone());
        warm.push(s);
    }
    let warm_seconds = warm_clock.elapsed().as_secs_f64();

    let ticks = cold
        .iter()
        .zip(&warm)
        .map(|(c, w)| {
            let rel = 1e-6 * (1.0 + c.plan.objective.abs());
            assert!(
                (c.plan.objective - w.plan.objective).abs() <= rel,
                "warm objective {} diverged from cold {}",
                w.plan.objective,
                c.plan.objective
            );
            LpTick {
                cold_pivots: c.pivots,
                warm_pivots: w.pivots,
                warm_started: w.warm_started,
            }
        })
        .collect();
    LpResult {
        ticks,
        cold_seconds,
        warm_seconds,
    }
}

/// One point of the backend scaling curve.
struct ScalingPoint {
    classes: usize,
    horizon: usize,
    lp_vars: usize,
    lp_constraints: usize,
    sparse_seconds: f64,
    sparse_pivots: usize,
    sparse_objective: f64,
    dense_seconds: f64,
    /// `true` when the dense run reached optimality; `false` when it was
    /// stopped by the pivot cap and `dense_seconds` is a lower bound.
    dense_completed: bool,
    dense_pivot_cap: Option<usize>,
}

/// Deterministic synthetic CBS classes: container sizes, utility
/// slopes, and base demand for `n` classes, spread across the machine
/// types' capacity range so the LP has non-trivial packing structure.
fn synthetic_classes(n: usize) -> (Vec<Resources>, Vec<f64>, Vec<f64>) {
    let sizes = (0..n)
        .map(|i| {
            Resources::new(
                0.02 + 0.28 * ((i * 7 % 13) as f64 / 13.0),
                0.02 + 0.28 * ((i * 5 % 11) as f64 / 11.0),
            )
        })
        .collect();
    let utility = (0..n).map(|i| 0.05 + 0.1 * (i % 3) as f64).collect();
    let base = (0..n).map(|i| 5.0 + 2.0 * (i % 7) as f64).collect();
    (sizes, utility, base)
}

/// Threshold above which the dense oracle is no longer run to
/// optimality: past ~5k variables a full dense solve takes minutes to
/// hours, so the benchmark only establishes a wall-clock lower bound.
const DENSE_FULL_SOLVE_MAX_VARS: usize = 5_000;

fn scaling_experiment(
    catalog: &harmony_model::MachineCatalog,
    config: &HarmonyConfig,
    points: &[(usize, usize)],
) -> Vec<ScalingPoint> {
    let price = EnergyPrice::default();
    let mut out = Vec::with_capacity(points.len());
    for &(classes, horizon) in points {
        let (sizes, utility, base) = synthetic_classes(classes);
        let demand = demand_at(1, horizon, &base);
        let initial = vec![0.0f64; catalog.len()];
        let inputs = CbsInputs {
            catalog,
            container_sizes: &sizes,
            utility_per_hour: &utility,
            demand: &demand,
            initial_active: &initial,
            price: &price,
            now: SimTime::ZERO,
        };
        let solve = |backend, max_pivots| {
            let cfg = HarmonyConfig {
                horizon,
                lp_backend: backend,
                max_lp_pivots: max_pivots,
                ..config.clone()
            };
            let clock = Instant::now();
            let result = solve_cbs_relax_warm(&inputs, &cfg, None);
            (result, clock.elapsed().as_secs_f64())
        };

        let (sparse, sparse_seconds) = solve(harmony::SolverBackend::Sparse, 400_000);
        let sparse = sparse.expect("sparse solve must succeed at every scale point");

        // Dense: full solve while tractable; past the threshold,
        // escalate a pivot cap until the elapsed time alone proves the
        // 5x sparse win (every capped run is a lower bound on the full
        // dense solve).
        let dense_seconds;
        let dense_completed;
        let mut dense_pivot_cap = None;
        if sparse.lp_vars <= DENSE_FULL_SOLVE_MAX_VARS {
            let (dense, secs) = solve(harmony::SolverBackend::Dense, 400_000);
            let dense = dense.expect("dense solve must succeed below the cap threshold");
            let rel = 1e-6 * (1.0 + sparse.plan.objective.abs());
            assert!(
                (sparse.plan.objective - dense.plan.objective).abs() <= rel,
                "backends disagree at {classes} classes: sparse {} vs dense {}",
                sparse.plan.objective,
                dense.plan.objective
            );
            dense_seconds = secs;
            dense_completed = true;
        } else {
            let mut cap = 512;
            let (secs, completed) = loop {
                let (result, elapsed) = solve(harmony::SolverBackend::Dense, cap);
                dense_pivot_cap = Some(cap);
                match result {
                    Ok(dense) => {
                        let rel = 1e-6 * (1.0 + sparse.plan.objective.abs());
                        assert!(
                            (sparse.plan.objective - dense.plan.objective).abs() <= rel,
                            "backends disagree at {classes} classes: sparse {} vs dense {}",
                            sparse.plan.objective,
                            dense.plan.objective
                        );
                        break (elapsed, true);
                    }
                    Err(harmony::HarmonyError::Optimization(
                        harmony_lp::LpError::IterationLimit { .. },
                    )) => {
                        if elapsed >= 5.0 * sparse_seconds || cap >= 65_536 {
                            break (elapsed, false);
                        }
                        cap *= 4;
                    }
                    Err(e) => panic!("dense capped run failed unexpectedly: {e}"),
                }
            };
            dense_seconds = secs;
            dense_completed = completed;
        }
        out.push(ScalingPoint {
            classes,
            horizon,
            lp_vars: sparse.lp_vars,
            lp_constraints: sparse.lp_constraints,
            sparse_seconds,
            sparse_pivots: sparse.pivots,
            sparse_objective: sparse.plan.objective,
            dense_seconds,
            dense_completed,
            dense_pivot_cap,
        });
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale::Quick
    } else {
        Scale::from_env()
    };
    let (lp_ticks, pipe_ticks, chunk) = match scale {
        Scale::Quick => (8, 4, 150),
        Scale::Default => (24, 8, 200),
        Scale::Full => (48, 16, 300),
    };

    let (trace, catalog, config, classifier_config) = evaluation_setup(scale);
    let classifier =
        TaskClassifier::fit(trace.tasks(), &classifier_config).expect("classifier fit");
    let manager = ContainerManager::new(&classifier, &config).expect("container manager");
    let n_classes = manager.n_classes();

    // ---- Experiment 1: cold vs warm LP chain -------------------------
    section("LP warm start: cold vs warm pivots per tick");
    let container_sizes: Vec<Resources> = (0..n_classes)
        .map(|n| manager.container_size(TaskClassId(n)))
        .collect();
    let utility: Vec<f64> = classifier
        .classes()
        .iter()
        .map(|c| config.utility_for(c.group))
        .collect();
    let price = EnergyPrice::default();
    let base: Vec<f64> = (0..n_classes).map(|n| 8.0 + 3.0 * (n % 5) as f64).collect();
    let template = CbsInputs {
        catalog: &catalog,
        container_sizes: &container_sizes,
        utility_per_hour: &utility,
        demand: &[],
        initial_active: &[],
        price: &price,
        now: SimTime::ZERO,
    };

    // Record the input sequence first (chaining initial_active through
    // the cold plan) so the timed passes replay identical problems.
    let mut inputs_seq = Vec::with_capacity(lp_ticks);
    let mut initial = vec![0.0f64; catalog.len()];
    for i in 0..lp_ticks {
        let now = SimTime::from_secs(i as f64 * config.control_period.as_secs());
        let demand = demand_at(i, config.horizon, &base);
        let s = solve_cbs_relax_warm(
            &CbsInputs {
                demand: &demand,
                initial_active: &initial,
                now,
                ..template.clone()
            },
            &config,
            None,
        )
        .expect("benchmark LP must solve");
        inputs_seq.push(TickInputs {
            demand,
            initial: initial.clone(),
            now,
        });
        initial = s.plan.first_step_machines().to_vec();
    }

    let lp = lp_experiment(&inputs_seq, &template, &config);
    let rows: Vec<Vec<String>> = lp
        .ticks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                i.to_string(),
                t.cold_pivots.to_string(),
                t.warm_pivots.to_string(),
                t.warm_started.to_string(),
            ]
        })
        .collect();
    table(
        &["tick", "cold_pivots", "warm_pivots", "warm_started"],
        &rows,
    );

    let cold_total: usize = lp.ticks.iter().map(|t| t.cold_pivots).sum();
    let warm_total: usize = lp.ticks.iter().map(|t| t.warm_pivots).sum();
    let warm_hits = lp.ticks.iter().filter(|t| t.warm_started).count();
    assert!(
        warm_total <= cold_total,
        "warm chain must not pivot more than cold: {warm_total} vs {cold_total}"
    );
    assert!(
        warm_hits == 0 || warm_total < cold_total,
        "with {warm_hits} warm restarts, warm pivots must drop: {warm_total} vs {cold_total}"
    );
    println!(
        "total pivots: cold={cold_total} warm={warm_total} ({warm_hits}/{} restarts took); \
         wall: cold={}s warm={}s",
        lp.ticks.len(),
        fmt(lp.cold_seconds),
        fmt(lp.warm_seconds)
    );

    // ---- Experiment 2: serial vs parallel pipeline -------------------
    section("Pipeline fan-out: serial vs parallel wall time");
    let run = |workers: Option<usize>| {
        let cfg = HarmonyConfig {
            pipeline_workers: workers,
            ..config.clone()
        };
        let mut pipeline = OnlinePipeline::new(
            classifier.clone(),
            catalog.clone(),
            cfg,
            EnergyPrice::default(),
        )
        .expect("pipeline");
        let clock = Instant::now();
        let plans: Vec<_> = (0..pipe_ticks)
            .map(|i| {
                let lo = (i * chunk).min(trace.len());
                let hi = ((i + 1) * chunk).min(trace.len());
                let tasks = &trace.tasks()[lo..hi];
                pipeline.tick(tasks, tasks)
            })
            .collect();
        assert_eq!(
            pipeline.error_count(),
            0,
            "benchmark ticks must not degrade"
        );
        (plans, clock.elapsed().as_secs_f64())
    };
    // Force a multi-worker run even on single-core hosts so the
    // threaded fan-out path is actually exercised; the automatic count
    // (`None`) is what production uses and is reported alongside.
    let auto_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_classes);
    let workers = auto_workers.max(4).min(n_classes.max(1));
    let (serial_plans, serial_seconds) = run(Some(1));
    let (parallel_plans, parallel_seconds) = run(Some(workers));
    assert_eq!(
        serial_plans, parallel_plans,
        "parallel plans must be bit-identical to serial"
    );
    let (auto_plans, _) = run(None);
    assert_eq!(auto_plans, serial_plans, "auto worker count must match too");
    table(
        &["variant", "workers", "ticks", "seconds"],
        &[
            vec![
                "serial".into(),
                "1".into(),
                pipe_ticks.to_string(),
                fmt(serial_seconds),
            ],
            vec![
                "parallel".into(),
                workers.to_string(),
                pipe_ticks.to_string(),
                fmt(parallel_seconds),
            ],
        ],
    );
    println!("plans bit-identical across worker counts: yes");

    // ---- Experiment 3: sparse vs dense scaling curve -----------------
    section("Backend scaling: sparse revised simplex vs dense tableau");
    let points: &[(usize, usize)] = match scale {
        Scale::Quick => &[(8, 2), (40, 3)],
        Scale::Default => &[(8, 2), (60, 3), (660, 4)],
        Scale::Full => &[(8, 2), (60, 3), (240, 4), (660, 4)],
    };
    let curve = scaling_experiment(&catalog, &config, points);
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.classes.to_string(),
                p.horizon.to_string(),
                p.lp_vars.to_string(),
                p.lp_constraints.to_string(),
                fmt(p.sparse_seconds),
                p.sparse_pivots.to_string(),
                format!(
                    "{}{}",
                    fmt(p.dense_seconds),
                    if p.dense_completed { "" } else { "+ (capped)" }
                ),
            ]
        })
        .collect();
    table(
        &["classes", "horizon", "lp_vars", "lp_rows", "sparse_s", "sparse_pivots", "dense_s"],
        &rows,
    );

    let largest = curve.last().expect("scaling curve has at least one point");
    let period_secs = config.control_period.as_secs();
    assert!(
        largest.sparse_seconds < period_secs,
        "sparse must solve the largest instance ({} vars) inside one control period: {}s vs {}s",
        largest.lp_vars,
        largest.sparse_seconds,
        period_secs
    );
    if largest.dense_completed {
        assert!(
            largest.sparse_seconds <= largest.dense_seconds,
            "sparse must not lose to dense at the largest scale point: {}s vs {}s",
            largest.sparse_seconds,
            largest.dense_seconds
        );
    }
    if largest.lp_vars >= DENSE_FULL_SOLVE_MAX_VARS {
        assert!(
            largest.dense_seconds >= 5.0 * largest.sparse_seconds,
            "sparse must beat dense 5x at the largest scale point: sparse {}s, dense {}{}s",
            largest.sparse_seconds,
            if largest.dense_completed { "" } else { ">=" },
            largest.dense_seconds
        );
        println!(
            "largest point: {} vars solved in {}s on sparse; dense needed {}{}s ({}x)",
            largest.lp_vars,
            fmt(largest.sparse_seconds),
            if largest.dense_completed { "" } else { ">=" },
            fmt(largest.dense_seconds),
            fmt(largest.dense_seconds / largest.sparse_seconds.max(1e-9)),
        );
    } else {
        println!(
            "largest point: {} vars; sparse {}s vs dense {}s",
            largest.lp_vars,
            fmt(largest.sparse_seconds),
            fmt(largest.dense_seconds)
        );
    }

    // ---- Artifact ----------------------------------------------------
    let per_tick = Value::Array(
        lp.ticks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Value::object(&[
                    ("tick", Value::Number(i as f64)),
                    ("cold_pivots", Value::Number(t.cold_pivots as f64)),
                    ("warm_pivots", Value::Number(t.warm_pivots as f64)),
                    ("warm_started", Value::Bool(t.warm_started)),
                ])
            })
            .collect(),
    );
    let payload = Value::object(&[
        ("name", Value::String("provisioning_perf".to_owned())),
        ("scale", Value::String(scale.name().to_owned())),
        (
            "lp",
            Value::object(&[
                ("ticks", Value::Number(lp.ticks.len() as f64)),
                ("cold_pivots_total", Value::Number(cold_total as f64)),
                ("warm_pivots_total", Value::Number(warm_total as f64)),
                ("warm_restarts", Value::Number(warm_hits as f64)),
                ("cold_seconds", Value::Number(lp.cold_seconds)),
                ("warm_seconds", Value::Number(lp.warm_seconds)),
                ("per_tick", per_tick),
            ]),
        ),
        (
            "pipeline",
            Value::object(&[
                ("ticks", Value::Number(pipe_ticks as f64)),
                ("serial_seconds", Value::Number(serial_seconds)),
                ("parallel_seconds", Value::Number(parallel_seconds)),
                ("workers", Value::Number(workers as f64)),
                ("auto_workers", Value::Number(auto_workers as f64)),
                ("plans_identical", Value::Bool(true)),
            ]),
        ),
        (
            "scaling",
            Value::object(&[
                ("control_period_seconds", Value::Number(period_secs)),
                (
                    "points",
                    Value::Array(
                        curve
                            .iter()
                            .map(|p| {
                                Value::object(&[
                                    ("classes", Value::Number(p.classes as f64)),
                                    ("horizon", Value::Number(p.horizon as f64)),
                                    ("lp_vars", Value::Number(p.lp_vars as f64)),
                                    ("lp_constraints", Value::Number(p.lp_constraints as f64)),
                                    ("sparse_seconds", Value::Number(p.sparse_seconds)),
                                    ("sparse_pivots", Value::Number(p.sparse_pivots as f64)),
                                    ("sparse_objective", Value::Number(p.sparse_objective)),
                                    ("dense_seconds", Value::Number(p.dense_seconds)),
                                    ("dense_completed", Value::Bool(p.dense_completed)),
                                    (
                                        "dense_pivot_cap",
                                        match p.dense_pivot_cap {
                                            Some(c) => Value::Number(c as f64),
                                            None => Value::Null,
                                        },
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]);
    let path = write_bench_json("provisioning_perf", &payload).expect("write artifact");
    println!("\nwrote {}", path.display());
}
