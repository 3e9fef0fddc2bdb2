//! The machine population and bulk power operations.

use harmony_model::{MachineCatalog, MachineTypeId, Resources, SimTime};

use crate::index::FreeIndex;
use crate::machine::{Machine, MachineId};

/// A cluster instantiated from a [`MachineCatalog`]: machines grouped by
/// type, with bulk power-state management and cluster-level accounting.
///
/// With [`Cluster::enable_index`] the cluster additionally maintains an
/// incremental free-capacity index (per-type fit-summary segment trees
/// and active/busy counters — see `index.rs`), making placement a
/// pruned tree descent and capacity queries O(types) instead of
/// O(machines) scans. Queries fall
/// back to exact linear scans when the index is off, and both paths
/// return identical results.
#[derive(Debug, Clone)]
pub struct Cluster {
    catalog: MachineCatalog,
    machines: Vec<Machine>,
    /// Machine ids per type, contiguous by construction.
    by_type: Vec<Vec<MachineId>>,
    switch_count: usize,
    switch_cost: f64,
    /// Boot-time multiplier, normally 1.0; raised by slow-boot faults.
    boot_factor: f64,
    /// Incremental capacity index (None → linear-scan reference paths).
    index: Option<FreeIndex>,
}

impl Cluster {
    /// Instantiates all machines in the catalog, powered off.
    pub fn new(catalog: MachineCatalog) -> Self {
        let mut machines = Vec::with_capacity(catalog.total_machines());
        let mut by_type = Vec::with_capacity(catalog.len());
        for ty in catalog.iter() {
            let mut ids = Vec::with_capacity(ty.count);
            for _ in 0..ty.count {
                let id = MachineId(machines.len());
                machines.push(Machine::new(id, ty.id, ty.capacity, ty.power));
                ids.push(id);
            }
            by_type.push(ids);
        }
        Cluster {
            catalog,
            machines,
            by_type,
            switch_count: 0,
            switch_cost: 0.0,
            boot_factor: 1.0,
            index: None,
        }
    }

    /// Builds (or rebuilds) the incremental capacity index from the
    /// current machine states. Every subsequent mutation keeps it in
    /// sync; queries then descend the index instead of scanning.
    pub fn enable_index(&mut self) {
        self.index = Some(FreeIndex::new(&self.machines, &self.by_type));
    }

    /// Re-reads one machine into the index after a mutation.
    #[inline]
    fn touch(&mut self, id: MachineId) {
        if let Some(index) = self.index.as_mut() {
            index.touch(&self.machines[id.0]);
        }
    }

    /// The catalog this cluster was built from.
    pub fn catalog(&self) -> &MachineCatalog {
        &self.catalog
    }

    /// Total number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// `true` if the cluster has no machines (impossible for a validated
    /// catalog; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// All machines, indexed by [`MachineId`].
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// One machine by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.0]
    }

    /// Machine ids of one type.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range.
    pub fn machines_of_type(&self, type_id: MachineTypeId) -> &[MachineId] {
        &self.by_type[type_id.0]
    }

    /// Number of active (on or booting) machines per type.
    pub fn active_per_type(&self) -> Vec<usize> {
        if let Some(index) = &self.index {
            return index.active_per_type();
        }
        self.by_type
            .iter()
            .map(|ids| ids.iter().filter(|id| self.machines[id.0].is_active()).count())
            .collect()
    }

    /// Number of machines per type currently running at least one task.
    pub fn used_per_type(&self) -> Vec<usize> {
        if let Some(index) = &self.index {
            return index.busy_per_type();
        }
        self.by_type
            .iter()
            .map(|ids| ids.iter().filter(|id| self.machines[id.0].running_tasks() > 0).count())
            .collect()
    }

    /// The lowest-id machine on which `demand` can be placed right now
    /// (First-Fit order: ids are contiguous per type, in catalog order).
    /// A pruned tree descent with the index, an exact linear scan
    /// without.
    pub fn first_fit_machine(&self, demand: Resources) -> Option<MachineId> {
        if let Some(index) = &self.index {
            return index.first_fit(&self.machines, demand);
        }
        self.machines.iter().find(|m| m.can_place(demand)).map(|m| m.id())
    }

    /// The lowest-id machine *of one type* on which `demand` can be
    /// placed right now.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range.
    pub fn first_fit_machine_of_type(
        &self,
        type_id: MachineTypeId,
        demand: Resources,
    ) -> Option<MachineId> {
        if let Some(index) = &self.index {
            return index.first_fit_of_type(&self.machines, type_id.0, demand);
        }
        self.by_type[type_id.0].iter().find(|id| self.machines[id.0].can_place(demand)).copied()
    }

    /// Component-wise maximum free capacity over the `On` machines of
    /// one type, clamped at zero (an all-off type yields
    /// [`Resources::ZERO`]). The drain pass's O(types) capacity
    /// pre-filter.
    ///
    /// # Panics
    ///
    /// Panics if `type_id` is out of range.
    pub fn max_free_of_type(&self, type_id: MachineTypeId) -> Resources {
        if let Some(index) = &self.index {
            return index.max_free_of_type(type_id.0);
        }
        let mut max = Resources::ZERO;
        for id in &self.by_type[type_id.0] {
            let m = &self.machines[id.0];
            if m.is_on() {
                max = max.max(m.free());
            }
        }
        max
    }

    /// Instantaneous cluster draw in watts.
    pub fn total_power_watts(&self) -> f64 {
        self.machines.iter().map(Machine::power_watts).sum()
    }

    /// Total energy accrued so far in watt-hours (flush with
    /// [`Cluster::accrue_all`] first for an exact figure).
    pub fn total_energy_wh(&self) -> f64 {
        self.machines.iter().map(Machine::energy_wh).sum()
    }

    /// Number of on/off transitions so far.
    pub fn switch_count(&self) -> usize {
        self.switch_count
    }

    /// Accumulated switching cost in dollars (`Σ q_m |u|`, Eq. 9).
    pub fn switch_cost(&self) -> f64 {
        self.switch_cost
    }

    /// Zeroes the switch counters. Used after constructing an initial
    /// condition (e.g. "all machines on at t=0") whose transitions should
    /// not count against the run.
    pub fn reset_switch_accounting(&mut self) {
        self.switch_count = 0;
        self.switch_cost = 0.0;
    }

    /// Integrates energy on every machine up to `now`.
    pub fn accrue_all(&mut self, now: SimTime) {
        for m in &mut self.machines {
            m.accrue_energy(now);
        }
    }

    /// Starts booting up to `n` powered-off machines of a type, returning
    /// the ids now booting and their shared ready time.
    pub fn power_on(
        &mut self,
        type_id: MachineTypeId,
        n: usize,
        now: SimTime,
    ) -> (Vec<MachineId>, SimTime) {
        let ty = self.catalog.machine_type(type_id);
        let ready_at = now + ty.boot_time * self.boot_factor;
        let q = ty.switching_cost;
        let mut started = Vec::new();
        for i in 0..self.by_type[type_id.0].len() {
            if started.len() >= n {
                break;
            }
            let id = self.by_type[type_id.0][i];
            if self.machines[id.0].power_on(now, ready_at) {
                started.push(id);
                self.switch_count += 1;
                self.switch_cost += q;
                self.touch(id);
            }
        }
        (started, ready_at)
    }

    /// Powers off up to `n` idle machines of a type (most-recently
    /// provisioned first is not tracked; any idle machine qualifies).
    /// Returns how many actually turned off — machines running tasks are
    /// never killed.
    pub fn power_off_idle(&mut self, type_id: MachineTypeId, n: usize, now: SimTime) -> usize {
        let q = self.catalog.machine_type(type_id).switching_cost;
        let mut stopped = 0;
        for i in 0..self.by_type[type_id.0].len() {
            if stopped >= n {
                break;
            }
            let id = self.by_type[type_id.0][i];
            let m = &mut self.machines[id.0];
            // Prefer draining empty On machines; Booting machines may
            // also be cancelled (counts as a switch).
            if m.running_tasks() == 0 && m.is_active() && m.power_off(now) {
                stopped += 1;
                self.switch_count += 1;
                self.switch_cost += q;
                self.touch(id);
            }
        }
        stopped
    }

    /// Powers off one specific idle machine, charging its switching
    /// cost. Returns `false` if it is busy or already off.
    pub fn power_off_machine(&mut self, id: MachineId, now: SimTime) -> bool {
        let ty = self.machines[id.0].type_id();
        let q = self.catalog.machine_type(ty).switching_cost;
        if self.machines[id.0].power_off(now) {
            self.switch_count += 1;
            self.switch_cost += q;
            self.touch(id);
            true
        } else {
            false
        }
    }

    /// The boot-time multiplier currently in effect.
    pub fn boot_factor(&self) -> f64 {
        self.boot_factor
    }

    /// Sets the boot-time multiplier (slow-boot fault windows). Values
    /// below a sane floor are clamped so boots always terminate.
    pub fn set_boot_factor(&mut self, factor: f64) {
        self.boot_factor = if factor.is_finite() { factor.max(0.01) } else { 1.0 };
    }

    /// Crashes one machine (fault injection): it drops every hosted
    /// allocation and stays unusable until `until`. No switching cost is
    /// charged — a failure is not a provisioning action. Returns `false`
    /// if the machine was not active.
    pub fn crash_machine(&mut self, id: MachineId, now: SimTime, until: SimTime) -> bool {
        let crashed = self.machines[id.0].crash(now, until);
        if crashed {
            self.touch(id);
        }
        crashed
    }

    /// Recovers a crashed machine whose downtime has elapsed, leaving it
    /// powered off. Returns `false` if it is not failed or still down.
    pub fn recover_machine(&mut self, id: MachineId, now: SimTime) -> bool {
        let recovered = self.machines[id.0].recover(now);
        if recovered {
            self.touch(id);
        }
        recovered
    }

    /// Reboots one specific powered-off machine without charging
    /// switching cost — the post-crash automatic restart (a repair
    /// action, not a provisioning decision). Returns the ready time, or
    /// `None` if the machine is not off.
    pub fn restart_machine(&mut self, id: MachineId, now: SimTime) -> Option<SimTime> {
        let ty = self.catalog.machine_type(self.machines[id.0].type_id());
        let ready_at = now + ty.boot_time * self.boot_factor;
        if self.machines[id.0].power_on(now, ready_at) {
            self.touch(id);
            Some(ready_at)
        } else {
            None
        }
    }

    /// Moves one running task's allocation from `src` to `dst` (both
    /// must be able to honor it). Returns `false` and changes nothing if
    /// `dst` cannot host the demand or `src` has no running tasks.
    pub fn migrate(
        &mut self,
        src: MachineId,
        dst: MachineId,
        demand: Resources,
        now: SimTime,
    ) -> bool {
        if src == dst
            || self.machines[src.0].running_tasks() == 0
            || !self.machines[dst.0].can_place(demand)
        {
            return false;
        }
        self.machines[src.0].release(now, demand);
        let ok = self.machines[dst.0].allocate(now, demand);
        debug_assert!(ok, "can_place checked above");
        self.touch(src);
        self.touch(dst);
        ok
    }

    /// Completes the boot of a machine (no-op if it was turned off again
    /// meanwhile).
    pub fn boot_complete(&mut self, id: MachineId, now: SimTime) -> bool {
        let done = self.machines[id.0].boot_complete(now);
        if done {
            self.touch(id);
        }
        done
    }

    /// Places one task of size `demand` on machine `id`.
    pub fn allocate(&mut self, id: MachineId, demand: Resources, now: SimTime) -> bool {
        let ok = self.machines[id.0].allocate(now, demand);
        if ok {
            self.touch(id);
        }
        ok
    }

    /// Releases one task of size `demand` from machine `id`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no running tasks.
    pub fn release(&mut self, id: MachineId, demand: Resources, now: SimTime) {
        self.machines[id.0].release(now, demand);
        self.touch(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_model::MachineCatalog;

    fn tiny() -> Cluster {
        Cluster::new(MachineCatalog::table2().scaled(1000)) // 7/2/1/1
    }

    #[test]
    fn construction_matches_catalog() {
        let c = tiny();
        assert_eq!(c.len(), 7 + 2 + 1 + 1);
        assert_eq!(c.machines_of_type(MachineTypeId(0)).len(), 7);
        assert_eq!(c.machines_of_type(MachineTypeId(3)).len(), 1);
        assert_eq!(c.active_per_type().iter().sum::<usize>(), 0);
        assert!(!c.is_empty());
        // Ids are dense and match positions.
        for (i, m) in c.machines().iter().enumerate() {
            assert_eq!(m.id(), MachineId(i));
        }
    }

    #[test]
    fn bulk_power_on_and_off() {
        let mut c = tiny();
        let (started, ready) = c.power_on(MachineTypeId(0), 3, SimTime::ZERO);
        assert_eq!(started.len(), 3);
        assert!(ready > SimTime::ZERO);
        assert_eq!(c.active_per_type(), vec![3, 0, 0, 0]);
        assert_eq!(c.switch_count(), 3);
        for id in &started {
            assert!(c.boot_complete(*id, ready));
        }
        // Request more than exist: capped.
        let (more, _) = c.power_on(MachineTypeId(0), 100, ready);
        assert_eq!(more.len(), 4);
        // Turn off 5 idle ones.
        assert_eq!(c.power_off_idle(MachineTypeId(0), 5, ready), 5);
        assert_eq!(c.active_per_type()[0], 2);
        assert!(c.switch_cost() > 0.0);
    }

    #[test]
    fn busy_machines_survive_power_off() {
        let mut c = tiny();
        let (ids, ready) = c.power_on(MachineTypeId(1), 2, SimTime::ZERO);
        for id in &ids {
            c.boot_complete(*id, ready);
        }
        assert!(c.allocate(ids[0], Resources::new(0.1, 0.1), ready));
        // Only the idle one can stop.
        assert_eq!(c.power_off_idle(MachineTypeId(1), 2, ready), 1);
        assert!(c.machine(ids[0]).is_on());
        assert_eq!(c.used_per_type()[1], 1);
        c.release(ids[0], Resources::new(0.1, 0.1), ready);
        assert_eq!(c.power_off_idle(MachineTypeId(1), 2, ready), 1);
        assert_eq!(c.active_per_type().iter().sum::<usize>(), 0);
    }

    #[test]
    fn migrate_moves_allocation_between_machines() {
        let mut c = tiny();
        let (ids, ready) = c.power_on(MachineTypeId(1), 2, SimTime::ZERO);
        for id in &ids {
            c.boot_complete(*id, ready);
        }
        let demand = Resources::new(0.1, 0.2);
        assert!(c.allocate(ids[0], demand, ready));
        assert!(c.migrate(ids[0], ids[1], demand, ready));
        assert_eq!(c.machine(ids[0]).running_tasks(), 0);
        assert_eq!(c.machine(ids[1]).running_tasks(), 1);
        assert_eq!(c.machine(ids[1]).used(), demand);
        // Cannot migrate to self, from empty, or beyond capacity.
        assert!(!c.migrate(ids[1], ids[1], demand, ready));
        assert!(!c.migrate(ids[0], ids[1], demand, ready));
        assert!(!c.migrate(ids[1], ids[0], Resources::new(0.9, 0.9), ready));
    }

    #[test]
    fn power_off_machine_charges_switching_cost() {
        let mut c = tiny();
        let (ids, ready) = c.power_on(MachineTypeId(0), 2, SimTime::ZERO);
        for id in &ids {
            c.boot_complete(*id, ready);
        }
        c.reset_switch_accounting();
        assert!(c.allocate(ids[0], Resources::new(0.01, 0.01), ready));
        // Busy machine refuses; idle one powers off and is charged.
        assert!(!c.power_off_machine(ids[0], ready));
        assert!(c.power_off_machine(ids[1], ready));
        assert_eq!(c.switch_count(), 1);
        assert!(c.switch_cost() > 0.0);
        // Double off is a no-op.
        assert!(!c.power_off_machine(ids[1], ready));
        assert_eq!(c.switch_count(), 1);
    }

    #[test]
    fn crash_recover_restart_cycle() {
        let mut c = tiny();
        let (ids, ready) = c.power_on(MachineTypeId(0), 2, SimTime::ZERO);
        for id in &ids {
            c.boot_complete(*id, ready);
        }
        assert!(c.allocate(ids[0], Resources::new(0.05, 0.05), ready));
        let switches_before = c.switch_count();
        let down_until = ready + harmony_model::SimDuration::from_secs(600.0);
        assert!(c.crash_machine(ids[0], ready, down_until));
        assert!(c.machine(ids[0]).is_failed());
        assert_eq!(c.active_per_type()[0], 1);
        // Crashes and repairs are free of switching cost.
        assert_eq!(c.switch_count(), switches_before);
        assert!(!c.recover_machine(ids[0], ready), "still down");
        assert!(c.recover_machine(ids[0], down_until));
        let restart_ready = c.restart_machine(ids[0], down_until).unwrap();
        assert!(restart_ready > down_until);
        assert!(c.boot_complete(ids[0], restart_ready));
        assert!(c.machine(ids[0]).is_on());
        assert_eq!(c.switch_count(), switches_before);
        // Restarting a machine that is not off fails.
        assert!(c.restart_machine(ids[0], restart_ready).is_none());
    }

    #[test]
    fn slow_boot_factor_stretches_boots() {
        let mut c = tiny();
        let (_, nominal) = c.power_on(MachineTypeId(0), 1, SimTime::ZERO);
        c.set_boot_factor(3.0);
        assert_eq!(c.boot_factor(), 3.0);
        let (ids, slow) = c.power_on(MachineTypeId(0), 1, SimTime::ZERO);
        assert_eq!(ids.len(), 1);
        assert!(
            (slow.as_secs() - 3.0 * nominal.as_secs()).abs() < 1e-9,
            "slow {slow:?} vs nominal {nominal:?}"
        );
        // Non-finite factors reset to nominal; tiny ones are floored.
        c.set_boot_factor(f64::NAN);
        assert_eq!(c.boot_factor(), 1.0);
        c.set_boot_factor(0.0);
        assert!(c.boot_factor() > 0.0);
    }

    #[test]
    fn energy_rolls_up() {
        let mut c = tiny();
        let (ids, _) = c.power_on(MachineTypeId(3), 1, SimTime::ZERO);
        c.boot_complete(ids[0], SimTime::ZERO + harmony_model::SimDuration::ZERO);
        c.accrue_all(SimTime::from_hours(1.0));
        // DL585 idle = 280 W for 1h.
        assert!((c.total_energy_wh() - 280.0).abs() < 1.0, "wh = {}", c.total_energy_wh());
        assert!(c.total_power_watts() >= 280.0);
    }
}
