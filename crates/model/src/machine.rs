//! Heterogeneous machine types and cluster catalogs.
//!
//! Two catalogs ship with the crate:
//!
//! * [`MachineCatalog::table2`] — the four simulated server models of the
//!   paper's Table II (Dell PowerEdge R210/R515, HP DL385 G7 / DL585 G7),
//!   with core counts and memory normalized so the largest machine
//!   (HP DL585 G7: 48 cores, 64 GB) has capacity `(1, 1)`.
//! * [`MachineCatalog::google_ten_types`] — a ten-platform catalog shaped
//!   like the machine heterogeneity the paper reports for the Google
//!   cluster (Fig. 5: >50% type 1, ~30% type 2, two ~1000-machine types,
//!   six sub-100-machine types).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ModelError, PowerModel, Resources, SimDuration};

/// Index of a machine type within a [`MachineCatalog`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MachineTypeId(pub usize);

impl fmt::Display for MachineTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mtype#{}", self.0)
    }
}

/// One machine platform: capacity, population, energy model, switching
/// characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineType {
    /// Index within the owning catalog.
    pub id: MachineTypeId,
    /// Human-readable model name (e.g. `"Dell PowerEdge R210"`).
    pub name: String,
    /// Micro-architecture / platform identifier (the trace's PFID).
    pub platform_id: u32,
    /// Normalized `(cpu, mem)` capacity; the largest machine is `(1, 1)`.
    pub capacity: Resources,
    /// Number of machines of this type available in the cluster
    /// (`N^m_t` upper bound in the formulation).
    pub count: usize,
    /// Linear power model (Eq. 7 parameters).
    pub power: PowerModel,
    /// Time for a powered-off machine to become schedulable.
    pub boot_time: SimDuration,
    /// Switching cost `q_m` in dollars per on/off transition. Captures
    /// boot energy, wear, and container-reassignment overhead.
    pub switching_cost: f64,
}

impl MachineType {
    /// Energy efficiency proxy: normalized capacity per peak watt.
    pub fn capacity_per_watt(&self) -> f64 {
        self.power.capacity_per_watt(self.capacity)
    }
}

/// An ordered collection of machine types describing a cluster.
///
/// # Examples
///
/// ```
/// use harmony_model::{MachineCatalog, Resources};
///
/// let catalog = MachineCatalog::table2();
/// assert_eq!(catalog.total_machines(), 10_000);
/// // Small tasks fit everywhere, the largest only on the DL585 G7.
/// let big = Resources::new(0.6, 0.6);
/// assert_eq!(catalog.iter().filter(|t| big.fits_within(t.capacity)).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCatalog {
    types: Vec<MachineType>,
}

impl MachineCatalog {
    /// Builds a catalog from machine types, re-assigning ids to match the
    /// vector order.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyCatalog`] when `types` is empty, and
    /// [`ModelError::InvalidMachineType`] when a capacity is not a valid
    /// resource vector or a count is zero.
    pub fn new(mut types: Vec<MachineType>) -> Result<Self, ModelError> {
        if types.is_empty() {
            return Err(ModelError::EmptyCatalog);
        }
        for (i, ty) in types.iter_mut().enumerate() {
            ty.id = MachineTypeId(i);
            if !ty.capacity.is_valid() || ty.capacity == Resources::ZERO {
                return Err(ModelError::InvalidMachineType {
                    name: ty.name.clone(),
                    reason: format!("capacity {} is invalid", ty.capacity),
                });
            }
            if ty.count == 0 {
                return Err(ModelError::InvalidMachineType {
                    name: ty.name.clone(),
                    reason: "count must be positive".to_owned(),
                });
            }
        }
        Ok(MachineCatalog { types })
    }

    /// The Table II evaluation cluster: 10,000 machines across four models.
    ///
    /// Power-model constants are estimated from public Energy Star
    /// server measurements (the paper's source \[2\]); see DESIGN.md §6 for
    /// the substitution note. The ordering they induce reproduces Fig. 9:
    /// the R210 draws the least at every load it can serve, the DL585 G7
    /// the most.
    #[expect(
        clippy::expect_used,
        reason = "Invariant: the literal catalog below is non-empty with positive counts and capacities, so construction cannot fail."
    )]
    pub fn table2() -> Self {
        // Largest machine: HP DL585 G7 = 4 sockets x 12 cores, 64 GB.
        const MAX_CORES: f64 = 48.0;
        const MAX_MEM_GB: f64 = 64.0;
        let spec = |name: &str,
                    pfid: u32,
                    cores: f64,
                    mem_gb: f64,
                    count: usize,
                    idle: f64,
                    alpha_cpu: f64,
                    alpha_mem: f64,
                    boot_s: f64,
                    q: f64| MachineType {
            id: MachineTypeId(0),
            name: name.to_owned(),
            platform_id: pfid,
            capacity: Resources::new(cores / MAX_CORES, mem_gb / MAX_MEM_GB),
            count,
            power: PowerModel::new(idle, Resources::new(alpha_cpu, alpha_mem)),
            boot_time: SimDuration::from_secs(boot_s),
            switching_cost: q,
        };
        MachineCatalog::new(vec![
            spec("Dell PowerEdge R210", 1, 4.0, 4.0, 7000, 40.0, 65.0, 12.0, 90.0, 0.001),
            spec("Dell PowerEdge R515", 2, 12.0, 32.0, 1500, 105.0, 180.0, 35.0, 120.0, 0.003),
            spec("HP DL385 G7", 3, 24.0, 16.0, 1000, 130.0, 250.0, 28.0, 120.0, 0.004),
            spec("HP DL585 G7", 4, 48.0, 64.0, 500, 280.0, 450.0, 70.0, 180.0, 0.008),
        ])
        .expect("table2 catalog is statically valid")
    }

    /// A ten-platform catalog mirroring the population skew of the Google
    /// cluster's machine mix (Fig. 5): two dominant platforms, two
    /// mid-size populations, six rare configurations.
    #[expect(
        clippy::expect_used,
        reason = "Invariant: the literal catalog below is non-empty with positive counts and capacities, so construction cannot fail."
    )]
    pub fn google_ten_types() -> Self {
        let spec = |name: &str, pfid: u32, cpu: f64, mem: f64, count: usize| MachineType {
            id: MachineTypeId(0),
            name: name.to_owned(),
            platform_id: pfid,
            capacity: Resources::new(cpu, mem),
            count,
            power: PowerModel::new(
                60.0 + 220.0 * cpu,
                Resources::new(120.0 + 330.0 * cpu, 15.0 + 55.0 * mem),
            ),
            boot_time: SimDuration::from_secs(120.0),
            switching_cost: 0.002 + 0.006 * cpu,
        };
        MachineCatalog::new(vec![
            spec("type-1", 1, 0.50, 0.50, 6200),
            spec("type-2", 1, 0.50, 0.25, 3700),
            spec("type-3", 2, 0.50, 0.75, 1000),
            spec("type-4", 2, 1.00, 1.00, 950),
            spec("type-5", 3, 0.25, 0.25, 95),
            spec("type-6", 1, 0.50, 0.12, 80),
            spec("type-7", 2, 0.50, 0.03, 60),
            spec("type-8", 3, 0.50, 0.97, 40),
            spec("type-9", 1, 1.00, 0.50, 25),
            spec("type-10", 3, 0.50, 0.06, 10),
        ])
        .expect("google_ten_types catalog is statically valid")
    }

    /// Number of machine types (`M` in the formulation).
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// `true` if the catalog holds no types (never true for a constructed
    /// catalog; provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The machine type at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this catalog.
    pub fn machine_type(&self, id: MachineTypeId) -> &MachineType {
        &self.types[id.0]
    }

    /// The machine type at `id`, or `None` when out of range.
    pub fn get(&self, id: MachineTypeId) -> Option<&MachineType> {
        self.types.get(id.0)
    }

    /// Iterates over machine types in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, MachineType> {
        self.types.iter()
    }

    /// Total machines across all types.
    pub fn total_machines(&self) -> usize {
        self.types.iter().map(|t| t.count).sum()
    }

    /// Total normalized capacity across all machines of all types.
    pub fn total_capacity(&self) -> Resources {
        self.types.iter().map(|t| t.capacity * t.count as f64).sum()
    }

    /// A copy of this catalog with every population divided by
    /// `divisor` (rounded up, so no type disappears). Used to run the
    /// paper's 10,000-machine evaluation at laptop scale while keeping
    /// the heterogeneity mix intact.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    #[expect(
        clippy::expect_used,
        reason = "Invariant: `self` was validated at construction and div_ceil keeps every count positive, so re-validation cannot fail."
    )]
    pub fn scaled(&self, divisor: usize) -> MachineCatalog {
        assert!(divisor > 0, "divisor must be positive");
        let types = self
            .types
            .iter()
            .map(|t| MachineType { count: t.count.div_ceil(divisor), ..t.clone() })
            .collect();
        MachineCatalog::new(types).expect("scaling preserves validity")
    }

    /// Machine type ids ordered by decreasing energy efficiency
    /// (capacity per peak watt) — the provisioning order of the
    /// heterogeneity-oblivious baseline.
    pub fn by_energy_efficiency(&self) -> Vec<MachineTypeId> {
        let mut ids: Vec<MachineTypeId> = self.types.iter().map(|t| t.id).collect();
        ids.sort_by(|a, b| {
            let ea = self.machine_type(*a).capacity_per_watt();
            let eb = self.machine_type(*b).capacity_per_watt();
            f64::total_cmp(&eb, &ea)
        });
        ids
    }
}

impl<'a> IntoIterator for &'a MachineCatalog {
    type Item = &'a MachineType;
    type IntoIter = std::slice::Iter<'a, MachineType>;

    fn into_iter(self) -> Self::IntoIter {
        self.types.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let c = MachineCatalog::table2();
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_machines(), 10_000);
        let names: Vec<&str> = c.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Dell PowerEdge R210", "Dell PowerEdge R515", "HP DL385 G7", "HP DL585 G7"]
        );
        // Normalization: DL585 G7 is the unit machine.
        assert_eq!(c.machine_type(MachineTypeId(3)).capacity, Resources::ONE);
        // R515: 12/48 cores, 32/64 GB.
        assert_eq!(c.machine_type(MachineTypeId(1)).capacity, Resources::new(0.25, 0.5));
        // DL385 G7: 24/48 cores, 16/64 GB.
        assert_eq!(c.machine_type(MachineTypeId(2)).capacity, Resources::new(0.5, 0.25));
        // R210: 4/48 cores, 4/64 GB.
        let r210 = c.machine_type(MachineTypeId(0));
        assert!((r210.capacity.cpu - 4.0 / 48.0).abs() < 1e-12);
        assert!((r210.capacity.mem - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn fig9_power_ordering_holds() {
        // At any CPU load a machine can serve, smaller machines must draw
        // less: R210 < R515 < DL385 < DL585 at 5% CPU.
        let c = MachineCatalog::table2();
        let u = Resources::new(0.05, 0.05);
        let draws: Vec<f64> = c.iter().map(|t| t.power.power_watts(u)).collect();
        for w in draws.windows(2) {
            assert!(w[0] < w[1], "power ordering violated: {draws:?}");
        }
    }

    #[test]
    fn schedulability_gaps_exist() {
        // A 0.2-CPU container does not fit on the R210 (Fig. 9 discussion).
        let c = MachineCatalog::table2();
        let hosts_for = |demand: Resources| -> Vec<MachineTypeId> {
            c.iter().filter(|t| demand.fits_within(t.capacity)).map(|t| t.id).collect()
        };
        let hosts = hosts_for(Resources::new(0.2, 0.01));
        assert!(!hosts.contains(&MachineTypeId(0)));
        assert_eq!(hosts.len(), 3);
        // And a full-machine task fits only on the DL585 G7.
        assert_eq!(hosts_for(Resources::ONE), vec![MachineTypeId(3)]);
    }

    #[test]
    fn ten_type_catalog_population_shape() {
        let c = MachineCatalog::google_ten_types();
        assert_eq!(c.len(), 10);
        let total = c.total_machines() as f64;
        let first = c.machine_type(MachineTypeId(0)).count as f64;
        let second = c.machine_type(MachineTypeId(1)).count as f64;
        assert!(first / total > 0.5, "type 1 should be >50% of machines");
        assert!(second / total > 0.25, "type 2 should be ~30% of machines");
        // Six rare types under 100 machines each.
        let rare = c.iter().filter(|t| t.count < 100).count();
        assert_eq!(rare, 6);
    }

    #[test]
    fn energy_efficiency_ordering_is_permutation() {
        let c = MachineCatalog::table2();
        let order = c.by_energy_efficiency();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, (0..4).map(MachineTypeId).collect::<Vec<_>>());
        for w in order.windows(2) {
            assert!(
                c.machine_type(w[0]).capacity_per_watt()
                    >= c.machine_type(w[1]).capacity_per_watt()
            );
        }
    }

    #[test]
    fn catalog_validation_rejects_bad_input() {
        assert!(matches!(MachineCatalog::new(vec![]), Err(ModelError::EmptyCatalog)));
        let mut ty = MachineCatalog::table2().machine_type(MachineTypeId(0)).clone();
        ty.count = 0;
        assert!(MachineCatalog::new(vec![ty.clone()]).is_err());
        ty.count = 5;
        ty.capacity = Resources::ZERO;
        assert!(MachineCatalog::new(vec![ty]).is_err());
    }

    #[test]
    fn ids_are_reassigned_in_order() {
        let mut types: Vec<MachineType> = MachineCatalog::table2().iter().cloned().collect();
        types.reverse();
        let c = MachineCatalog::new(types).unwrap();
        for (i, t) in c.iter().enumerate() {
            assert_eq!(t.id, MachineTypeId(i));
        }
        assert_eq!(c.machine_type(MachineTypeId(0)).name, "HP DL585 G7");
    }

    #[test]
    fn total_capacity_sums_over_population() {
        let c = MachineCatalog::new(vec![MachineType {
            id: MachineTypeId(0),
            name: "a".into(),
            platform_id: 1,
            capacity: Resources::new(0.5, 0.25),
            count: 4,
            power: PowerModel::new(10.0, Resources::ZERO),
            boot_time: SimDuration::ZERO,
            switching_cost: 0.0,
        }])
        .unwrap();
        assert_eq!(c.total_capacity(), Resources::new(2.0, 1.0));
    }
}
