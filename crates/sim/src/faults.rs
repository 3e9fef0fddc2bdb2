//! Deterministic fault injection for robustness experiments.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of disruptive
//! events — machine crashes, slow boots, forced task evictions, arrival
//! bursts — that the engine weaves into its discrete-event loop. The
//! same plan against the same trace always produces the same run, so
//! fault scenarios can be compared across controllers (the Section IX
//! variants) exactly like fault-free ones.
//!
//! Event timing lives in the plan; *victim selection* (which machine
//! crashes, which tasks are evicted) is resolved at fire time by a
//! [`FaultInjector`] seeded from the plan, because machine and task
//! state only exist once the simulation is running. Both halves are
//! driven by `harmony_model`'s splitmix64 generator, keeping the crate
//! free of external RNG dependencies and the schedule stable across
//! platforms.

use harmony_model::{SimDuration, SimTime, SplitMix64};
use serde::{Deserialize, Serialize};

use crate::machine::MachineId;

/// What kind of disruption a fault event causes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Crash one active machine (chosen at fire time, busy machines
    /// preferred): its running tasks are re-queued, the machine draws no
    /// power and hosts nothing until it recovers and reboots `down`
    /// later.
    MachineCrash {
        /// How long the machine stays failed before rebooting.
        down: SimDuration,
    },
    /// Multiply machine boot times by `factor` for `duration` — models
    /// degraded provisioning (image-server contention, PXE storms).
    SlowBoot {
        /// Boot-time multiplier (≥ 1 slows boots down).
        factor: f64,
        /// How long the slow window lasts.
        duration: SimDuration,
    },
    /// Forcibly evict up to `count` running tasks (lowest priority
    /// first); each is re-queued with its remaining work preserved.
    TaskEviction {
        /// Maximum number of tasks to evict.
        count: usize,
    },
    /// Compress all arrivals falling in `(at, at + window]` to fire at
    /// the event time — a thundering-herd burst. Applied to the trace
    /// before the run starts, so task conservation is unaffected.
    ArrivalBurst {
        /// Width of the arrival window pulled forward.
        window: SimDuration,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, reproducible schedule of fault events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

/// Named scenarios accepted by [`FaultPlan::scenario`].
pub const SCENARIOS: [&str; 5] =
    ["crash-storm", "slow-boot", "eviction-wave", "arrival-burst", "mixed"];

impl FaultPlan {
    /// An empty plan with the given victim-selection seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Adds one event (builder style). Events may be added in any order;
    /// the engine orders them by time.
    pub fn with_event(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// The victim-selection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a named scenario spread over `span` (see [`SCENARIOS`]).
    /// Returns `None` for an unknown name.
    ///
    /// * `crash-storm` — a dozen machine crashes through the middle of
    ///   the run, each down for minutes.
    /// * `slow-boot` — two long windows where boots take 3–5× longer.
    /// * `eviction-wave` — four bursts of forced task evictions.
    /// * `arrival-burst` — two thundering-herd arrival compressions.
    /// * `mixed` — a lighter combination of all of the above.
    pub fn scenario(name: &str, seed: u64, span: SimDuration) -> Option<Self> {
        let mut rng = SplitMix64::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let secs = span.as_secs();
        let at = |frac: f64| SimTime::from_secs(secs * frac);
        let mut plan = FaultPlan::new(seed);
        match name {
            "crash-storm" => {
                for _ in 0..12 {
                    plan = plan.with_event(
                        at(rng.range(0.10, 0.70)),
                        FaultKind::MachineCrash {
                            down: SimDuration::from_secs(rng.range(300.0, 1200.0)),
                        },
                    );
                }
            }
            "slow-boot" => {
                for _ in 0..2 {
                    plan = plan.with_event(
                        at(rng.range(0.10, 0.55)),
                        FaultKind::SlowBoot {
                            factor: rng.range(3.0, 5.0),
                            duration: SimDuration::from_secs(secs * 0.15),
                        },
                    );
                }
            }
            "eviction-wave" => {
                for _ in 0..4 {
                    plan = plan.with_event(
                        at(rng.range(0.15, 0.75)),
                        FaultKind::TaskEviction { count: 20 + rng.below(31) },
                    );
                }
            }
            "arrival-burst" => {
                for _ in 0..2 {
                    plan = plan.with_event(
                        at(rng.range(0.10, 0.60)),
                        FaultKind::ArrivalBurst { window: SimDuration::from_secs(secs * 0.08) },
                    );
                }
            }
            "mixed" => {
                for _ in 0..4 {
                    plan = plan.with_event(
                        at(rng.range(0.10, 0.70)),
                        FaultKind::MachineCrash {
                            down: SimDuration::from_secs(rng.range(300.0, 900.0)),
                        },
                    );
                }
                plan = plan.with_event(
                    at(rng.range(0.10, 0.40)),
                    FaultKind::SlowBoot {
                        factor: rng.range(2.0, 4.0),
                        duration: SimDuration::from_secs(secs * 0.10),
                    },
                );
                plan = plan.with_event(
                    at(rng.range(0.20, 0.60)),
                    FaultKind::TaskEviction { count: 10 + rng.below(21) },
                );
                plan = plan.with_event(
                    at(rng.range(0.15, 0.50)),
                    FaultKind::ArrivalBurst { window: SimDuration::from_secs(secs * 0.05) },
                );
            }
            _ => return None,
        }
        Some(plan)
    }
}

/// Resolves fire-time decisions (victim machines, victim tasks) for one
/// run of a [`FaultPlan`], deterministically from the plan seed.
#[derive(Debug)]
pub struct FaultInjector {
    rng: SplitMix64,
}

impl FaultInjector {
    /// Creates the injector for one run of `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector { rng: SplitMix64::new(plan.seed()) }
    }

    /// Picks one victim from `candidates` (uniformly). Returns `None`
    /// when there is nothing to pick.
    pub fn pick_machine(&mut self, candidates: &[MachineId]) -> Option<MachineId> {
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.below(candidates.len())])
    }
}

/// A fault the engine actually applied, as recorded in
/// [`crate::SimReport::faults`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// When the fault was applied.
    pub at: SimTime,
    /// What was applied and to what effect.
    pub kind: FaultRecordKind,
}

/// The applied-fault variants of a [`FaultRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultRecordKind {
    /// A machine crashed; `evicted` tasks were re-queued and `failed`
    /// exceeded their retry budget and were dropped.
    MachineCrash {
        /// The crashed machine.
        machine: MachineId,
        /// Tasks re-queued into the pending queue.
        evicted: usize,
        /// Tasks that exhausted their retry budget.
        failed: usize,
    },
    /// A crashed machine finished its downtime and started rebooting.
    MachineRecovered {
        /// The recovering machine.
        machine: MachineId,
    },
    /// A slow-boot window opened with the given boot-time factor.
    SlowBootStart {
        /// Boot-time multiplier now in effect.
        factor: f64,
    },
    /// A slow-boot window closed (boot times back to nominal).
    SlowBootEnd,
    /// A forced-eviction event re-queued `evicted` tasks and dropped
    /// `failed` over-budget ones.
    TaskEviction {
        /// Tasks re-queued into the pending queue.
        evicted: usize,
        /// Tasks that exhausted their retry budget.
        failed: usize,
    },
    /// An arrival burst pulled `tasks_warped` arrivals forward to the
    /// event time.
    ArrivalBurst {
        /// Number of arrivals compressed into the burst instant.
        tasks_warped: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut uniq = xs.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), xs.len(), "no immediate repeats");
        let mut c = SplitMix64::new(7);
        for _ in 0..100 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.below(5) < 5);
        }
        assert_eq!(c.below(0), 0);
    }

    #[test]
    fn scenarios_are_reproducible() {
        let span = SimDuration::from_hours(2.0);
        for name in SCENARIOS {
            let a = FaultPlan::scenario(name, 42, span).unwrap();
            let b = FaultPlan::scenario(name, 42, span).unwrap();
            assert_eq!(a, b, "{name} must be deterministic");
            assert!(!a.is_empty(), "{name} must schedule events");
            for ev in a.events() {
                assert!(ev.at.as_secs() >= 0.0 && ev.at.as_secs() <= span.as_secs());
            }
            let c = FaultPlan::scenario(name, 43, span).unwrap();
            assert_ne!(a, c, "{name} must vary with the seed");
        }
        assert!(FaultPlan::scenario("nope", 1, span).is_none());
    }

    #[test]
    fn crash_storm_is_all_crashes() {
        let plan = FaultPlan::scenario("crash-storm", 5, SimDuration::from_hours(2.0)).unwrap();
        assert_eq!(plan.events().len(), 12);
        assert!(plan.events().iter().all(|e| matches!(e.kind, FaultKind::MachineCrash { .. })));
    }

    #[test]
    fn builder_and_injector() {
        let plan = FaultPlan::new(9)
            .with_event(SimTime::from_secs(10.0), FaultKind::TaskEviction { count: 3 });
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.events().len(), 1);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.pick_machine(&[]), None);
        let only = [MachineId(4)];
        assert_eq!(inj.pick_machine(&only), Some(MachineId(4)));
        let pool: Vec<MachineId> = (0..10).map(MachineId).collect();
        let picked = inj.pick_machine(&pool).unwrap();
        assert!(pool.contains(&picked));
        // Same plan, fresh injector: same pick sequence.
        let mut inj2 = FaultInjector::new(&plan);
        inj2.pick_machine(&only);
        assert_eq!(inj2.pick_machine(&pool), Some(picked));
    }
}
