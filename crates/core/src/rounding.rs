//! Rounding the fractional CBS-RELAX plan to integers (Lemma 1 /
//! Algorithm 1).
//!
//! Lemma 1: given a fractional solution with `z*_m` machines and `x*_mn`
//! containers, a greedy First-Fit can place `x*_mn / (2|R|)` containers
//! of each class on `z*_m + 1` machines. The controller therefore:
//!
//! 1. takes `⌈z*_m⌉` machines of each type (plus the Lemma-1 slack
//!    machine for types that host containers) as the integer target;
//! 2. packs the class container totals `⌈Σ_m x*_mn⌉` into that machine
//!    mix with First-Fit-Decreasing to obtain validated integer quotas —
//!    packing against the *whole* planned mix avoids the mass lost by
//!    rounding each `x_mn` cell independently (fractional assignments
//!    spread thinly across types would otherwise round to zero);
//! 3. hands the per-(type, class) integer quotas to the scheduler.

use harmony_model::{MachineCatalog, MachineTypeId, Resources};
use serde::{Deserialize, Serialize};

use crate::cbs::CbsPlan;

/// An integer provisioning decision for one control period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegerPlan {
    /// Machines to keep active per type.
    pub machines: Vec<usize>,
    /// Container quota per `[machine_type][class]`, as packed by
    /// First-Fit.
    pub quotas: Vec<Vec<usize>>,
}

impl IntegerPlan {
    /// Total quota for one class across machine types.
    pub fn class_quota(&self, class: usize) -> usize {
        self.quotas.iter().map(|per_n| per_n.get(class).copied().unwrap_or(0)).sum()
    }
}

/// Rounds the first step of a fractional plan: integer machine targets
/// plus First-Fit-validated container quotas.
pub fn round_first_step(
    plan: &CbsPlan,
    catalog: &MachineCatalog,
    container_sizes: &[Resources],
) -> IntegerPlan {
    let z = plan.first_step_machines();
    let x = plan.first_step_quotas();
    let n_classes = container_sizes.len();

    // Integer machine targets: ceil(z).
    let mut machines = Vec::with_capacity(z.len());
    for (m, &zf) in z.iter().enumerate() {
        let ty = catalog.machine_type(MachineTypeId(m));
        machines.push((zf.ceil() as usize).min(ty.count));
    }

    // Class totals, rounded up so thin fractional spreads keep their
    // mass.
    let totals: Vec<usize> = (0..n_classes)
        .map(|n| {
            let total: f64 = x.iter().map(|per_n| per_n[n]).sum();
            (total - 1e-9).ceil().max(0.0) as usize
        })
        .collect();

    // Pack the totals into the planned mix; only when rounding loss
    // leaves containers unpacked does each hosting type receive its
    // Lemma-1 slack machine (at the paper's 10k-machine scale a +1 per
    // type is noise; at laptop scale it would be systematic
    // over-provisioning).
    let mut quotas = pack_into_mix(&totals, container_sizes, catalog, &machines);
    let packed_all = (0..n_classes)
        .all(|n| quotas.iter().map(|p| p[n]).sum::<usize>() >= totals[n]);
    if !packed_all {
        for (m, target) in machines.iter_mut().enumerate() {
            let ty = catalog.machine_type(MachineTypeId(m));
            let hosts_any = x[m].iter().any(|&v| v > 1e-9);
            *target = (*target + usize::from(hosts_any)).min(ty.count);
        }
        quotas = pack_into_mix(&totals, container_sizes, catalog, &machines);
    }
    IntegerPlan { machines, quotas }
}

/// First-Fit-Decreasing packing of class container totals into a
/// heterogeneous machine mix (`machines[m]` machines of each catalog
/// type). Returns the per-`[machine_type][class]` packed counts.
pub fn pack_into_mix(
    totals: &[usize],
    sizes: &[Resources],
    catalog: &MachineCatalog,
    machines: &[usize],
) -> Vec<Vec<usize>> {
    let mut types = Vec::new();
    let mut free = Vec::new();
    for (m, &count) in machines.iter().enumerate() {
        let cap = catalog.machine_type(MachineTypeId(m)).capacity;
        types.extend(std::iter::repeat_n(m, count));
        free.extend(std::iter::repeat_n(cap, count));
    }
    let mut packed = vec![vec![0usize; totals.len()]; machines.len()];
    first_fit_decreasing(totals, sizes, &mut free, |machine, n| packed[types[machine]][n] += 1);
    packed
}

/// Greedy First-Fit packing of `counts[n]` containers of each class into
/// `machines` machines of one capacity. Returns how many containers of
/// each class were placed (classes packed largest-first).
pub fn first_fit_pack(
    counts: &[usize],
    sizes: &[Resources],
    capacity: Resources,
    machines: usize,
) -> Vec<usize> {
    let mut placed = vec![0usize; counts.len()];
    first_fit_decreasing(counts, sizes, &mut vec![capacity; machines], |_, n| placed[n] += 1);
    placed
}

/// First-Fit-Decreasing over the machines' free capacities: classes
/// largest-first, each container on the first machine it fits, calling
/// `place(machine, class)` per container; a class stops at its first
/// container that fits nowhere.
///
/// Each container's scan resumes at the machine the previous container
/// of its class landed on: the machines before it refused this class and
/// have not changed since, so they would refuse it again.
fn first_fit_decreasing(
    counts: &[usize],
    sizes: &[Resources],
    free: &mut [Resources],
    mut place: impl FnMut(usize, usize),
) {
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        f64::total_cmp(&sizes[b].sum_components(), &sizes[a].sum_components())
    });
    for &n in &order {
        let size = sizes[n];
        let mut cursor = 0;
        for _ in 0..counts[n] {
            let Some(offset) = free[cursor..].iter().position(|slot| size.fits_within(*slot)) else {
                break; // no machine fits this class anymore
            };
            cursor += offset;
            free[cursor] -= size;
            place(cursor, n);
        }
    }
}

/// The rescanning First-Fit-Decreasing that [`first_fit_decreasing`]
/// replaced: every container's scan starts again at machine 0. Kept as
/// the oracle the cursor must match.
#[cfg(test)]
fn pack_into_mix_rescan(
    totals: &[usize],
    sizes: &[Resources],
    catalog: &MachineCatalog,
    machines: &[usize],
) -> Vec<Vec<usize>> {
    let mut free: Vec<(usize, Resources)> = Vec::new();
    for (m, &count) in machines.iter().enumerate() {
        let cap = catalog.machine_type(MachineTypeId(m)).capacity;
        free.extend(std::iter::repeat_n((m, cap), count));
    }
    let mut packed = vec![vec![0usize; totals.len()]; machines.len()];
    let mut order: Vec<usize> = (0..totals.len()).collect();
    order.sort_by(|&a, &b| {
        f64::total_cmp(&sizes[b].sum_components(), &sizes[a].sum_components())
    });
    for &n in &order {
        let size = sizes[n];
        'containers: for _ in 0..totals[n] {
            for (m, slot) in free.iter_mut() {
                if size.fits_within(*slot) {
                    *slot -= size;
                    packed[*m][n] += 1;
                    continue 'containers;
                }
            }
            break;
        }
    }
    packed
}

/// Checks the Lemma-1 guarantee for a packing instance: scaling every
/// class count by `1/(2|R|)` must fit in `machines + 1` machines
/// whenever the fractional solution `(counts, machines)` satisfied the
/// capacity constraints. Returns `true` if First-Fit achieves it.
pub fn lemma1_holds(
    counts: &[usize],
    sizes: &[Resources],
    capacity: Resources,
    machines: usize,
) -> bool {
    let scale = 2.0 * harmony_model::NUM_RESOURCES as f64;
    let scaled: Vec<usize> =
        counts.iter().map(|&c| (c as f64 / scale).floor() as usize).collect();
    let placed = first_fit_pack(&scaled, sizes, capacity, machines + 1);
    placed.iter().zip(&scaled).all(|(p, s)| p >= s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbs::CbsPlan;

    #[test]
    fn first_fit_packs_simple_case() {
        // 4 containers of 0.5 into machines of capacity 1: 2 machines.
        let placed = first_fit_pack(
            &[4],
            &[Resources::new(0.5, 0.5)],
            Resources::ONE,
            2,
        );
        assert_eq!(placed, vec![4]);
        // Only 1 machine: 2 fit.
        let placed = first_fit_pack(&[4], &[Resources::new(0.5, 0.5)], Resources::ONE, 1);
        assert_eq!(placed, vec![2]);
    }

    #[test]
    fn first_fit_respects_both_dimensions() {
        // CPU-heavy and mem-heavy containers complement each other.
        let sizes = [Resources::new(0.8, 0.1), Resources::new(0.1, 0.8)];
        let placed = first_fit_pack(&[1, 1], &sizes, Resources::ONE, 1);
        assert_eq!(placed, vec![1, 1]);
        // Two CPU-heavy do not share a machine.
        let placed = first_fit_pack(&[2, 0], &sizes, Resources::ONE, 1);
        assert_eq!(placed, vec![1, 0]);
    }

    #[test]
    fn zero_machines_place_nothing() {
        let placed = first_fit_pack(&[3], &[Resources::new(0.1, 0.1)], Resources::ONE, 0);
        assert_eq!(placed, vec![0]);
    }

    #[test]
    fn lemma1_on_random_instances() {
        // Construct fractionally-feasible instances and verify the
        // scaled packing guarantee.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64).abs()
        };
        for _ in 0..50 {
            let n_classes = 1 + (next() * 4.0) as usize;
            let sizes: Vec<Resources> = (0..n_classes)
                .map(|_| Resources::new(0.05 + next() * 0.4, 0.05 + next() * 0.4))
                .collect();
            let machines = 2 + (next() * 10.0) as usize;
            let capacity = Resources::ONE;
            // Fill fractionally: total volume per resource ≤ machines.
            let mut counts = vec![0usize; n_classes];
            let mut cpu = 0.0;
            let mut mem = 0.0;
            loop {
                let n = (next() * n_classes as f64) as usize % n_classes;
                if cpu + sizes[n].cpu > machines as f64 || mem + sizes[n].mem > machines as f64 {
                    break;
                }
                counts[n] += 1;
                cpu += sizes[n].cpu;
                mem += sizes[n].mem;
            }
            assert!(
                lemma1_holds(&counts, &sizes, capacity, machines),
                "lemma 1 violated: counts {counts:?}, sizes {sizes:?}, machines {machines}"
            );
        }
    }

    #[test]
    fn round_first_step_keeps_thin_fractional_mass() {
        let catalog = harmony_model::MachineCatalog::table2().scaled(100);
        let sizes = vec![Resources::new(0.02, 0.02)];
        // 0.3 containers on each of four types: cell-wise rounding would
        // drop all of it; class-total rounding keeps ⌈1.2⌉ = 2.
        let plan = CbsPlan {
            z: vec![vec![1.0, 1.0, 1.0, 1.0]],
            x: vec![vec![vec![0.3], vec![0.3], vec![0.3], vec![0.3]]],
            objective: 0.0,
        };
        let integer = round_first_step(&plan, &catalog, &sizes);
        assert_eq!(integer.class_quota(0), 2);
    }

    #[test]
    fn round_first_step_produces_feasible_quotas() {
        let catalog = harmony_model::MachineCatalog::table2().scaled(100);
        let sizes = vec![Resources::new(0.05, 0.03), Resources::new(0.3, 0.2)];
        let plan = CbsPlan {
            z: vec![vec![3.4, 0.0, 1.5, 0.0]],
            x: vec![vec![
                vec![10.2, 0.0],
                vec![0.0, 0.0],
                vec![0.0, 2.5],
                vec![0.0, 0.0],
            ]],
            objective: 0.0,
        };
        let integer = round_first_step(&plan, &catalog, &sizes);
        // ⌈3.4⌉ + 1 slack = 5 R210s; ⌈1.5⌉ + 1 = 3 DL385s.
        assert_eq!(integer.machines, vec![5, 0, 3, 0]);
        // Class totals are honored up to physical packing: 11 small
        // containers requested; each R210 (0.0833, 0.0625) fits 1 (cpu-
        // bound), each DL385 (0.5, 0.25) fits several after the big
        // containers.
        assert!(integer.class_quota(0) >= 5, "quotas: {:?}", integer.quotas);
        assert_eq!(integer.class_quota(1), 3);
    }

    #[test]
    fn round_respects_population_caps() {
        let catalog = harmony_model::MachineCatalog::table2().scaled(2500); // 3/1/1/1
        let sizes = vec![Resources::new(0.01, 0.01)];
        let plan = CbsPlan {
            z: vec![vec![100.0, 100.0, 100.0, 100.0]],
            x: vec![vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]]],
            objective: 0.0,
        };
        let integer = round_first_step(&plan, &catalog, &sizes);
        assert_eq!(integer.machines, vec![3, 1, 1, 1]);
        assert_eq!(integer.class_quota(0), 20);
    }

    #[test]
    fn pack_into_mix_uses_all_types() {
        let catalog = harmony_model::MachineCatalog::table2().scaled(1000); // 7/2/1/1
        // 30 small containers across the whole mix.
        let packed = pack_into_mix(
            &[30],
            &[Resources::new(0.05, 0.04)],
            &catalog,
            &[7, 2, 1, 1],
        );
        let total: usize = packed.iter().map(|p| p[0]).sum();
        assert!(total >= 25, "most containers should pack: {packed:?}");
        // R210s (cpu 0.083) host 1 each; big machines host the rest.
        assert!(packed[3][0] > 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The cursor First-Fit packs exactly what the rescanning one
        /// does, on the planned mix, on the mix with the Lemma-1 slack
        /// machines, and through `round_first_step` whichever pass it
        /// keeps.
        #[test]
        fn cursor_first_fit_matches_rescan(
            divisor in proptest::sample::select(vec![40usize, 100, 400, 2500]),
            sizes in proptest::collection::vec((0.002f64..0.5, 0.002f64..0.5), 1..8),
            z in proptest::collection::vec(0.0f64..30.0, 4),
            cells in proptest::collection::vec(-20.0f64..30.0, 32),
        ) {
            let catalog = harmony_model::MachineCatalog::table2().scaled(divisor);
            let sizes: Vec<Resources> = sizes.iter().map(|&(c, m)| Resources::new(c, m)).collect();
            let n_classes = sizes.len();
            let x: Vec<Vec<f64>> = (0..4)
                .map(|m| (0..n_classes).map(|n| cells[m * 8 + n].max(0.0)).collect())
                .collect();
            let plan = CbsPlan { z: vec![z.clone()], x: vec![x.clone()], objective: 0.0 };
            let totals: Vec<usize> = (0..n_classes)
                .map(|n| {
                    let total: f64 = x.iter().map(|per_n| per_n[n]).sum();
                    (total - 1e-9).ceil().max(0.0) as usize
                })
                .collect();
            let count = |m: usize| catalog.machine_type(MachineTypeId(m)).count;
            let planned: Vec<usize> =
                z.iter().enumerate().map(|(m, zf)| (zf.ceil() as usize).min(count(m))).collect();
            let slack: Vec<usize> = planned
                .iter()
                .enumerate()
                .map(|(m, &k)| (k + usize::from(x[m].iter().any(|&v| v > 1e-9))).min(count(m)))
                .collect();
            for mix in [&planned, &slack] {
                proptest::prop_assert_eq!(
                    pack_into_mix(&totals, &sizes, &catalog, mix),
                    pack_into_mix_rescan(&totals, &sizes, &catalog, mix)
                );
                // One machine type alone is `first_fit_pack`'s case.
                let one_type = [mix[2], 0, 0, 0];
                let cap = catalog.machine_type(MachineTypeId(0)).capacity;
                proptest::prop_assert_eq!(
                    first_fit_pack(&totals, &sizes, cap, mix[2]),
                    pack_into_mix_rescan(&totals, &sizes, &catalog, &one_type)[0].clone()
                );
            }
            let integer = round_first_step(&plan, &catalog, &sizes);
            proptest::prop_assert!(integer.machines == planned || integer.machines == slack);
            proptest::prop_assert_eq!(
                integer.quotas,
                pack_into_mix_rescan(&totals, &sizes, &catalog, &integer.machines)
            );
        }
    }

    #[test]
    fn round_first_step_takes_the_slack_pass_like_the_rescan() {
        // The feasible-quotas plan above leaves containers unpacked on
        // its ⌈z⌉ mix, so its quotas come from the slack pass.
        let catalog = harmony_model::MachineCatalog::table2().scaled(100);
        let sizes = vec![Resources::new(0.05, 0.03), Resources::new(0.3, 0.2)];
        let plan = CbsPlan {
            z: vec![vec![3.4, 0.0, 1.5, 0.0]],
            x: vec![vec![vec![10.2, 0.0], vec![0.0, 0.0], vec![0.0, 2.5], vec![0.0, 0.0]]],
            objective: 0.0,
        };
        let integer = round_first_step(&plan, &catalog, &sizes);
        assert_eq!(integer.machines, vec![5, 0, 3, 0], "slack machines added");
        assert_eq!(integer.quotas, pack_into_mix_rescan(&[11, 3], &sizes, &catalog, &[5, 0, 3, 0]));
    }
}
