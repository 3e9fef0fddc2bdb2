//! Individual machine state and energy accounting.

use harmony_model::{MachineTypeId, PowerModel, Resources, SimTime};
use serde::{Deserialize, Serialize};

/// Index of a machine within a [`crate::Cluster`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MachineId(pub usize);

/// Machine lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineState {
    /// Powered off; draws nothing, hosts nothing.
    Off,
    /// Booting; draws idle power, cannot host tasks until `ready_at`.
    Booting {
        /// When the machine becomes schedulable.
        ready_at: SimTime,
    },
    /// On and schedulable.
    On,
    /// Crashed by an injected fault; draws nothing, hosts nothing, and
    /// cannot be powered on until it recovers at `until`.
    Failed {
        /// When the machine becomes recoverable.
        until: SimTime,
    },
}

/// One physical machine: capacity, current allocation, lifecycle state,
/// and lazily-integrated energy.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    id: MachineId,
    type_id: MachineTypeId,
    capacity: Resources,
    power: PowerModel,
    state: MachineState,
    used: Resources,
    running_tasks: usize,
    energy_wh: f64,
    last_update: SimTime,
}

impl Machine {
    /// Creates a powered-off machine.
    pub fn new(
        id: MachineId,
        type_id: MachineTypeId,
        capacity: Resources,
        power: PowerModel,
    ) -> Self {
        Machine {
            id,
            type_id,
            capacity,
            power,
            state: MachineState::Off,
            used: Resources::ZERO,
            running_tasks: 0,
            energy_wh: 0.0,
            last_update: SimTime::ZERO,
        }
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// This machine's type.
    pub fn type_id(&self) -> MachineTypeId {
        self.type_id
    }

    /// Nominal capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Currently allocated resources.
    pub fn used(&self) -> Resources {
        self.used
    }

    /// Remaining free resources.
    pub fn free(&self) -> Resources {
        self.capacity - self.used
    }

    /// Current lifecycle state.
    pub fn state(&self) -> MachineState {
        self.state
    }

    /// Number of tasks currently running here.
    pub fn running_tasks(&self) -> usize {
        self.running_tasks
    }

    /// `true` if the machine is `On`.
    pub fn is_on(&self) -> bool {
        matches!(self.state, MachineState::On)
    }

    /// `true` if the machine is `On` or `Booting` (counts toward the
    /// provisioned-capacity targets). Crashed machines are not active:
    /// the controller cannot count on them and may provision around
    /// them.
    pub fn is_active(&self) -> bool {
        matches!(self.state, MachineState::On | MachineState::Booting { .. })
    }

    /// `true` if the machine is crashed and waiting out its downtime.
    #[cfg(test)]
    pub fn is_failed(&self) -> bool {
        matches!(self.state, MachineState::Failed { .. })
    }

    /// `true` if `demand` fits in the remaining capacity of an `On`
    /// machine.
    pub fn can_place(&self, demand: Resources) -> bool {
        self.is_on() && (self.used + demand).fits_within(self.capacity)
    }

    /// Utilization vector `used / capacity` (Eq. 6).
    pub fn utilization(&self) -> Resources {
        self.used.utilization_of(self.capacity)
    }

    /// Instantaneous draw in watts: linear model when on, idle draw when
    /// booting, zero when off.
    pub fn power_watts(&self) -> f64 {
        match self.state {
            MachineState::Off | MachineState::Failed { .. } => 0.0,
            MachineState::Booting { .. } => self.power.idle_watts,
            MachineState::On => self.power.power_watts(self.utilization()),
        }
    }

    /// Integrates energy since the last update. Must be called (by the
    /// cluster) before any state or allocation change.
    pub(crate) fn accrue_energy(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update);
        self.energy_wh += self.power_watts() * dt.as_hours();
        self.last_update = now;
    }

    /// Total energy consumed so far, in watt-hours (accrued up to the
    /// last update).
    pub fn energy_wh(&self) -> f64 {
        self.energy_wh
    }

    /// Starts booting. No-op unless currently `Off`.
    pub(crate) fn power_on(&mut self, now: SimTime, ready_at: SimTime) -> bool {
        if matches!(self.state, MachineState::Off) {
            self.accrue_energy(now);
            self.state = MachineState::Booting { ready_at };
            true
        } else {
            false
        }
    }

    /// Completes booting. No-op unless currently `Booting` with a ready
    /// time at or before `now` — a stale boot event for a machine that
    /// was cycled off and on again must not complete the newer boot
    /// early.
    pub(crate) fn boot_complete(&mut self, now: SimTime) -> bool {
        if matches!(self.state, MachineState::Booting { ready_at } if ready_at <= now) {
            self.accrue_energy(now);
            self.state = MachineState::On;
            true
        } else {
            false
        }
    }

    /// Powers off. Only legal for idle machines.
    ///
    /// Returns `false` (and does nothing) if tasks are running or the
    /// machine is already off.
    pub(crate) fn power_off(&mut self, now: SimTime) -> bool {
        if self.running_tasks == 0 && self.is_active() {
            self.accrue_energy(now);
            self.state = MachineState::Off;
            self.used = Resources::ZERO;
            true
        } else {
            false
        }
    }

    /// Crashes the machine: it stops drawing power and drops every
    /// hosted allocation (the engine re-queues the tasks). Legal from
    /// `On` or `Booting`; returns `false` otherwise.
    pub(crate) fn crash(&mut self, now: SimTime, until: SimTime) -> bool {
        if !self.is_active() {
            return false;
        }
        self.accrue_energy(now);
        self.state = MachineState::Failed { until };
        self.used = Resources::ZERO;
        self.running_tasks = 0;
        true
    }

    /// Ends a crash: the machine becomes `Off` (and may be powered on
    /// again). Legal only from `Failed` with a downtime at or before
    /// `now`; returns `false` otherwise.
    pub(crate) fn recover(&mut self, now: SimTime) -> bool {
        if matches!(self.state, MachineState::Failed { until } if until <= now) {
            self.accrue_energy(now);
            self.state = MachineState::Off;
            true
        } else {
            false
        }
    }

    /// Allocates `demand` for one task.
    ///
    /// Returns `false` (and does nothing) if the machine is not on or
    /// the demand does not fit.
    pub(crate) fn allocate(&mut self, now: SimTime, demand: Resources) -> bool {
        if !self.can_place(demand) {
            return false;
        }
        self.accrue_energy(now);
        self.used += demand;
        self.running_tasks += 1;
        true
    }

    /// Releases `demand` for one finished task.
    ///
    /// # Panics
    ///
    /// Panics if no tasks are running (release without allocate).
    pub(crate) fn release(&mut self, now: SimTime, demand: Resources) {
        assert!(self.running_tasks > 0, "release on an idle machine {}", self.id.0);
        self.accrue_energy(now);
        self.running_tasks -= 1;
        self.used = (self.used - demand).max(Resources::ZERO);
        if self.running_tasks == 0 {
            self.used = Resources::ZERO; // clear rounding residue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(
            MachineId(0),
            MachineTypeId(1),
            Resources::new(0.5, 0.5),
            PowerModel::new(100.0, Resources::new(100.0, 50.0)),
        )
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut m = machine();
        assert!(matches!(m.state(), MachineState::Off));
        assert!(!m.is_active());
        assert!(m.power_on(SimTime::ZERO, SimTime::from_secs(120.0)));
        assert!(m.is_active());
        assert!(!m.is_on());
        assert!(m.boot_complete(SimTime::from_secs(120.0)));
        assert!(m.is_on());
        assert!(m.power_off(SimTime::from_secs(200.0)));
        assert!(!m.is_active());
    }

    #[test]
    fn double_transitions_are_noops() {
        let mut m = machine();
        assert!(m.power_on(SimTime::ZERO, SimTime::from_secs(1.0)));
        assert!(!m.power_on(SimTime::ZERO, SimTime::from_secs(1.0)));
        assert!(m.boot_complete(SimTime::from_secs(1.0)));
        assert!(!m.boot_complete(SimTime::from_secs(1.0)));
        assert!(m.power_off(SimTime::from_secs(2.0)));
        assert!(!m.power_off(SimTime::from_secs(2.0)));
    }

    #[test]
    fn allocation_respects_capacity_and_state() {
        let mut m = machine();
        let demand = Resources::new(0.3, 0.3);
        // Not on yet.
        assert!(!m.allocate(SimTime::ZERO, demand));
        m.power_on(SimTime::ZERO, SimTime::ZERO);
        m.boot_complete(SimTime::ZERO);
        assert!(m.allocate(SimTime::ZERO, demand));
        // Second one exceeds capacity.
        assert!(!m.allocate(SimTime::ZERO, demand));
        assert!(m.allocate(SimTime::ZERO, Resources::new(0.2, 0.1)));
        assert_eq!(m.running_tasks(), 2);
        // Cannot power off while running.
        assert!(!m.power_off(SimTime::from_secs(10.0)));
        m.release(SimTime::from_secs(10.0), demand);
        m.release(SimTime::from_secs(10.0), Resources::new(0.2, 0.1));
        assert_eq!(m.used(), Resources::ZERO);
        assert!(m.power_off(SimTime::from_secs(10.0)));
    }

    #[test]
    #[should_panic(expected = "release on an idle machine")]
    fn release_without_allocate_panics() {
        let mut m = machine();
        m.release(SimTime::ZERO, Resources::new(0.1, 0.1));
    }

    #[test]
    fn energy_integration_over_states() {
        let mut m = machine();
        // Off for 1h: 0 Wh.
        m.accrue_energy(SimTime::from_hours(1.0));
        assert_eq!(m.energy_wh(), 0.0);
        // Booting for 1h: idle 100 W → 100 Wh.
        m.power_on(SimTime::from_hours(1.0), SimTime::from_hours(2.0));
        m.boot_complete(SimTime::from_hours(2.0));
        assert!((m.energy_wh() - 100.0).abs() < 1e-9);
        // On, idle for 1h: another 100 Wh.
        m.accrue_energy(SimTime::from_hours(3.0));
        assert!((m.energy_wh() - 200.0).abs() < 1e-9);
        // Full load for 1h: 100 + 100*1.0 + 50*1.0 = 250 W... utilization
        // is (0.5/0.5, 0.5/0.5) = (1,1) when fully used.
        assert!(m.allocate(SimTime::from_hours(3.0), Resources::new(0.5, 0.5)));
        m.accrue_energy(SimTime::from_hours(4.0));
        assert!((m.energy_wh() - 450.0).abs() < 1e-9, "wh = {}", m.energy_wh());
    }

    #[test]
    fn crash_and_recover_lifecycle() {
        let mut m = machine();
        // Crashing an off machine is a no-op.
        assert!(!m.crash(SimTime::ZERO, SimTime::from_secs(100.0)));
        m.power_on(SimTime::ZERO, SimTime::ZERO);
        m.boot_complete(SimTime::ZERO);
        assert!(m.allocate(SimTime::ZERO, Resources::new(0.3, 0.3)));
        assert!(m.crash(SimTime::from_secs(10.0), SimTime::from_secs(110.0)));
        assert!(m.is_failed());
        assert!(!m.is_active());
        assert_eq!(m.running_tasks(), 0);
        assert_eq!(m.used(), Resources::ZERO);
        assert_eq!(m.power_watts(), 0.0);
        // Cannot allocate, power on, or power off while failed.
        assert!(!m.allocate(SimTime::from_secs(20.0), Resources::new(0.1, 0.1)));
        assert!(!m.power_on(SimTime::from_secs(20.0), SimTime::from_secs(30.0)));
        assert!(!m.power_off(SimTime::from_secs(20.0)));
        // Recovery before the downtime elapses is refused.
        assert!(!m.recover(SimTime::from_secs(50.0)));
        assert!(m.recover(SimTime::from_secs(110.0)));
        assert!(matches!(m.state(), MachineState::Off));
        // And the machine boots normally again.
        assert!(m.power_on(SimTime::from_secs(120.0), SimTime::from_secs(240.0)));
    }

    #[test]
    fn failed_machine_draws_no_energy() {
        let mut m = machine();
        m.power_on(SimTime::ZERO, SimTime::ZERO);
        m.boot_complete(SimTime::ZERO);
        m.accrue_energy(SimTime::from_hours(1.0)); // 100 Wh idle
        assert!(m.crash(SimTime::from_hours(1.0), SimTime::from_hours(3.0)));
        m.accrue_energy(SimTime::from_hours(2.0));
        assert!((m.energy_wh() - 100.0).abs() < 1e-9, "wh = {}", m.energy_wh());
    }

    #[test]
    fn utilization_and_power() {
        let mut m = machine();
        m.power_on(SimTime::ZERO, SimTime::ZERO);
        m.boot_complete(SimTime::ZERO);
        assert!(m.allocate(SimTime::ZERO, Resources::new(0.25, 0.1)));
        let u = m.utilization();
        assert!((u.cpu - 0.5).abs() < 1e-12);
        assert!((u.mem - 0.2).abs() < 1e-12);
        assert!((m.power_watts() - (100.0 + 50.0 + 10.0)).abs() < 1e-9);
        assert_eq!(m.free(), Resources::new(0.25, 0.4));
    }
}
