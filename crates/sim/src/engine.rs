//! The discrete-event loop.

use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;
use std::collections::{BTreeMap, BTreeSet};

use harmony_model::{
    EnergyPrice, MachineCatalog, MachineTypeId, PriorityGroup, Resources, SimDuration, SimTime,
    Task, TaskId,
};
use harmony_trace::Trace;

use crate::calendar::CalendarQueue;
use crate::cluster::Cluster;
use crate::controller::{Controller, DegradationEvent, Observation, TaskView};
use crate::faults::{FaultInjector, FaultKind, FaultPlan, FaultRecord, FaultRecordKind};
use crate::machine::MachineId;
use crate::metrics::{SimReport, TimePoint};
use crate::scheduler::Scheduler;

/// Which engine internals a run uses. Production has one:
/// [`EngineMode::Indexed`]. Tests add a reference mode — the seed
/// engine's linear-scan placement and global binary-heap event loop —
/// and assert byte-identical [`SimReport`]s against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Indexed cluster state (per-type max-free segment trees,
    /// incremental active/busy counters) and a calendar event queue —
    /// O(log machines) placement, O(types) drain pre-filter, O(1)
    /// amortized event scheduling. Runs paper scale (10,000 machines,
    /// millions of tasks) in CI-feasible wall time.
    #[default]
    Indexed,
    /// The seed engine's linear-scan placement and global `BinaryHeap`
    /// event loop, kept verbatim as the determinism oracle.
    #[cfg(test)]
    Reference,
}

/// Static configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    catalog: MachineCatalog,
    price: EnergyPrice,
    all_on: bool,
    sample_interval: SimDuration,
    drain_failure_limit: usize,
    preemption: bool,
    faults: Option<FaultPlan>,
    max_task_retries: u32,
    mode: EngineMode,
}

impl SimulationConfig {
    /// Creates a configuration for the given machine catalog with a flat
    /// default energy price, all machines initially off, 15-minute metric
    /// samples, a drain batch limit of 256 distinct failures, and
    /// priority preemption enabled (higher priority groups may evict
    /// lower ones, as in the Google cluster the paper analyses).
    pub fn new(catalog: MachineCatalog) -> Self {
        SimulationConfig {
            catalog,
            price: EnergyPrice::default(),
            all_on: false,
            sample_interval: SimDuration::from_mins(15.0),
            drain_failure_limit: 256,
            preemption: true,
            faults: None,
            max_task_retries: 3,
            mode: EngineMode::default(),
        }
    }

    /// Selects the engine internals (see [`EngineMode`]). The default,
    /// and the only mode outside tests, is [`EngineMode::Indexed`].
    pub fn engine_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Starts the run with every machine already on (no boot delay) —
    /// used for open-loop trace analysis like Fig. 4.
    pub fn all_machines_on(mut self) -> Self {
        self.all_on = true;
        self
    }

    /// Sets the electricity price curve `p_t`.
    pub fn price(mut self, price: EnergyPrice) -> Self {
        self.price = price;
        self
    }

    /// Sets the metric sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        assert!(interval.as_secs() > 0.0, "sample interval must be positive");
        self.sample_interval = interval;
        self
    }

    /// Sets how many distinct placement failures end a drain pass (the
    /// scheduler's batching knob).
    pub fn drain_failure_limit(mut self, limit: usize) -> Self {
        self.drain_failure_limit = limit.max(1);
        self
    }

    /// Disables priority preemption (no evictions).
    pub fn without_preemption(mut self) -> Self {
        self.preemption = false;
        self
    }

    /// Injects the given fault plan into the run. Fault events are
    /// scheduled into the event loop alongside arrivals and control
    /// ticks; every applied fault is recorded in
    /// [`SimReport::faults`](crate::SimReport).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets how many fault-induced interruptions a task survives before
    /// it is dropped as failed (default 3). Priority preemption does not
    /// count against this budget — only injected crashes and evictions
    /// do.
    pub fn max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    Arrival(usize),
    /// Task completion. `epoch` stamps the placement that scheduled it:
    /// a stale completion (the task was evicted and re-queued since) is
    /// ignored.
    Finish {
        task_idx: usize,
        epoch: u32,
    },
    BootDone(MachineId),
    Control,
    Sample,
    /// An injected fault fires; the payload indexes the plan's events.
    Fault(usize),
    /// A crashed machine's downtime elapsed.
    FaultRecover(MachineId),
    /// A slow-boot window ended; boot times return to nominal.
    SlowBootEnd,
}

#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct HeapItem {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

#[cfg(test)]
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue behind the run loop: the calendar queue, plus (in
/// tests) the reference mode's global binary heap. Both pop the strict
/// `(time, seq)` minimum, so the event sequence is identical.
#[derive(Debug)]
enum EventQueue {
    Calendar(CalendarQueue<EventKind>),
    #[cfg(test)]
    Heap { heap: BinaryHeap<HeapItem>, peak: usize },
}

impl EventQueue {
    fn push(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        match self {
            EventQueue::Calendar(cal) => cal.push(time, seq, kind),
            #[cfg(test)]
            EventQueue::Heap { heap, peak } => {
                heap.push(HeapItem { time, seq, kind });
                *peak = (*peak).max(heap.len());
            }
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        match self {
            EventQueue::Calendar(cal) => cal.pop(),
            #[cfg(test)]
            EventQueue::Heap { heap, .. } => heap.pop().map(|item| (item.time, item.kind)),
        }
    }

    /// High-watermark of resident events (`sim.heap_peak`).
    fn peak(&self) -> usize {
        match self {
            EventQueue::Calendar(cal) => cal.peak(),
            #[cfg(test)]
            EventQueue::Heap { peak, .. } => *peak,
        }
    }
}

/// Pending-queue key: higher priority first, then FIFO by arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PendKey {
    neg_priority: i16,
    arrival: SimTime,
    id: TaskId,
}

impl PendKey {
    fn of(task: &Task) -> Self {
        PendKey {
            neg_priority: -(task.priority.level() as i16),
            arrival: task.arrival,
            id: task.id,
        }
    }
}

/// Bidirectional task↔machine placement book.
///
/// Ordered maps, deliberately: crash handling and repack iterate these,
/// and the run must be bit-identical across repeats for checkpoint
/// replay (see `tests/determinism.rs`), so no hash-order dependence.
#[derive(Debug, Default)]
struct Placements {
    host_of: BTreeMap<usize, MachineId>,
    residents: BTreeMap<MachineId, Vec<usize>>,
}

impl Placements {
    fn insert(&mut self, idx: usize, machine: MachineId) {
        self.host_of.insert(idx, machine);
        self.residents.entry(machine).or_default().push(idx);
    }

    // Invariant: callers only remove tasks the engine placed earlier in
    // the same run (host_of and residents are updated in lockstep).
    #[allow(clippy::expect_used)]
    fn remove(&mut self, idx: usize) -> MachineId {
        let machine = self.host_of.remove(&idx).expect("task must be placed");
        if let Some(list) = self.residents.get_mut(&machine) {
            list.retain(|&i| i != idx);
            if list.is_empty() {
                self.residents.remove(&machine);
            }
        }
        machine
    }

    fn relocate(&mut self, idx: usize, to: MachineId) {
        self.remove(idx);
        self.insert(idx, to);
    }

    fn on(&self, machine: MachineId) -> &[usize] {
        self.residents
            .get(&machine)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Mutable per-task execution state.
#[derive(Debug)]
struct TaskState {
    /// Placement epoch; bumped on eviction so stale finish events are
    /// ignored.
    epoch: Vec<u32>,
    /// Remaining execution time in seconds. Eviction uses
    /// suspend/resume semantics: work done before the eviction is kept,
    /// so only the remainder has to run after re-placement.
    remaining_secs: Vec<f64>,
    /// When the task last started executing (for computing the
    /// remainder on eviction).
    started_at: Vec<SimTime>,
    /// When the task last entered the pending queue (arrival, or the
    /// moment it was evicted). Scheduling delay is measured per attempt
    /// from this instant, matching the per-submission semantics of the
    /// Google trace.
    queued_since: Vec<SimTime>,
    /// How many fault-induced interruptions (crash or injected
    /// eviction) the task has absorbed. Priority preemption is not
    /// counted: the retry budget bounds fault damage, not scheduling
    /// policy.
    retries: Vec<u32>,
}

impl TaskState {
    fn new(tasks: &[Task], queued_since: Vec<SimTime>) -> Self {
        TaskState {
            epoch: vec![0; tasks.len()],
            remaining_secs: tasks.iter().map(|t| t.duration.as_secs()).collect(),
            started_at: vec![SimTime::ZERO; tasks.len()],
            queued_since,
            retries: vec![0; tasks.len()],
        }
    }
}

/// A configured simulation, ready to run over a trace.
#[derive(Debug)]
pub struct Simulation<'t> {
    config: SimulationConfig,
    trace: &'t Trace,
    scheduler: Box<dyn Scheduler>,
    controller: Option<Box<dyn Controller>>,
}

/// Everything the event handlers mutate, bundled to keep call sites
/// sane.
struct RunState {
    cluster: Cluster,
    pending: BTreeMap<PendKey, usize>,
    placements: Placements,
    task_state: TaskState,
    running_set: BTreeSet<usize>,
    delays: [Vec<f64>; 3],
    completed: usize,
    unschedulable: usize,
    failed: usize,
    migrations: usize,
    evictions: usize,
    faults: Vec<FaultRecord>,
    degradations: Vec<DegradationEvent>,
    queue: EventQueue,
    seq: u64,
    /// Pending-queue high-watermark, observed at every insert (the only
    /// instant the queue can grow), so it is tracked in exactly one
    /// place.
    pending_peak: usize,
    /// Entries a drain pass has taken out of `pending` to walk: they
    /// still count toward the queue's length (and so its peak) until
    /// the pass puts them back.
    draining: usize,
    drain: DrainBook,
}

/// No shape id yet: the task has not been visited by a drain pass.
const UNSHAPED: u32 = u32::MAX;

/// What the drain keeps across passes: each task's interned
/// (priority, quantized demand) shape, the pass in which each shape last
/// failed, and count-only tallies flushed to telemetry at the end of the
/// run.
#[derive(Debug)]
struct DrainBook {
    /// Per task index: its shape id, or [`UNSHAPED`].
    shape_of: Vec<u32>,
    ids: BTreeMap<(u8, u64, u64), u32>,
    /// Per shape id: the pass in which a task of that shape last failed
    /// to place (0 = never; passes count from 1).
    failed_in: Vec<u64>,
    passes: u64,
    visits: u64,
    limit_hits: u64,
}

impl DrainBook {
    fn new(tasks: usize) -> Self {
        DrainBook {
            shape_of: vec![UNSHAPED; tasks],
            ids: BTreeMap::new(),
            failed_in: Vec::new(),
            passes: 0,
            visits: 0,
            limit_hits: 0,
        }
    }

    /// The task's shape id, interned on its first visit.
    fn shape(&mut self, idx: usize, task: &Task) -> usize {
        if self.shape_of[idx] == UNSHAPED {
            let key = (
                task.priority.level(),
                (task.demand.cpu * 512.0).ceil() as u64,
                (task.demand.mem * 512.0).ceil() as u64,
            );
            let next = self.failed_in.len() as u32;
            let id = *self.ids.entry(key).or_insert(next);
            if id == next {
                self.failed_in.push(0);
            }
            self.shape_of[idx] = id;
        }
        self.shape_of[idx] as usize
    }
}

impl RunState {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(time, self.seq, kind);
    }

    /// Inserts a task into the pending queue, updating the peak.
    fn enqueue_pending(&mut self, key: PendKey, idx: usize) {
        self.pending.insert(key, idx);
        self.pending_peak = self.pending_peak.max(self.pending.len() + self.draining);
    }
}

impl<'t> Simulation<'t> {
    /// Builds a simulation without a capacity controller (machine states
    /// change only via the initial condition).
    pub fn new(config: SimulationConfig, trace: &'t Trace, scheduler: Box<dyn Scheduler>) -> Self {
        Simulation {
            config,
            trace,
            scheduler,
            controller: None,
        }
    }

    /// Attaches a dynamic-capacity-provisioning controller.
    pub fn with_controller(mut self, controller: Box<dyn Controller>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Runs the simulation to the end of the trace span.
    pub fn run(mut self) -> SimReport {
        let tasks = self.trace.tasks();
        let end = SimTime::ZERO + self.trace.span();
        let plan = self.config.faults.clone();
        let mut injector = plan.as_ref().map(FaultInjector::new);
        // Arrival-burst faults warp upcoming arrivals to the burst
        // instant before the run starts: the same tasks arrive, just
        // compressed in time, so conservation is unaffected.
        let mut effective_arrival: Vec<SimTime> = tasks.iter().map(|t| t.arrival).collect();
        let mut burst_counts: BTreeMap<usize, usize> = BTreeMap::new();
        if let Some(plan) = plan.as_ref() {
            for (ei, ev) in plan.events().iter().enumerate() {
                if let FaultKind::ArrivalBurst { window } = ev.kind {
                    let hi = ev.at + window;
                    let mut warped = 0usize;
                    for (i, t) in tasks.iter().enumerate() {
                        if t.arrival > ev.at && t.arrival <= hi {
                            effective_arrival[i] = effective_arrival[i].min(ev.at);
                            warped += 1;
                        }
                    }
                    burst_counts.insert(ei, warped);
                }
            }
        }
        let mut cluster = Cluster::new(self.config.catalog.clone());
        let queue = match self.config.mode {
            EngineMode::Indexed => {
                cluster.enable_index();
                // Expected population: every task contributes an arrival
                // and (roughly) a finish; boots/controls/samples are noise
                // at scale. The calendar resizes itself either way.
                let expected = tasks.len().saturating_mul(2).max(1024);
                EventQueue::Calendar(CalendarQueue::new(self.trace.span().as_secs(), expected))
            }
            #[cfg(test)]
            EngineMode::Reference => EventQueue::Heap { heap: BinaryHeap::new(), peak: 0 },
        };
        let mut st = RunState {
            cluster,
            pending: BTreeMap::new(),
            placements: Placements::default(),
            task_state: TaskState::new(tasks, effective_arrival.clone()),
            running_set: BTreeSet::new(),
            delays: [Vec::new(), Vec::new(), Vec::new()],
            completed: 0,
            unschedulable: 0,
            failed: 0,
            migrations: 0,
            evictions: 0,
            faults: Vec::new(),
            degradations: Vec::new(),
            queue,
            seq: 0,
            pending_peak: 0,
            draining: 0,
            drain: DrainBook::new(tasks.len()),
        };

        if self.config.all_on {
            for ty in 0..st.cluster.catalog().len() {
                let boot_time = st
                    .cluster
                    .catalog()
                    .machine_type(MachineTypeId(ty))
                    .boot_time;
                let (ids, _) = st
                    .cluster
                    .power_on(MachineTypeId(ty), usize::MAX, SimTime::ZERO);
                for id in ids {
                    // On from t=0: complete the boot at its nominal ready
                    // time without advancing the clock.
                    st.cluster.boot_complete(id, SimTime::ZERO + boot_time);
                }
            }
            // The initial condition is given, not a provisioning action.
            st.cluster.reset_switch_accounting();
        }

        for (i, arrival) in effective_arrival.iter().enumerate() {
            st.push(*arrival, EventKind::Arrival(i));
        }
        if let Some(plan) = plan.as_ref() {
            for (ei, ev) in plan.events().iter().enumerate() {
                st.push(ev.at, EventKind::Fault(ei));
            }
        }
        if self.controller.is_some() {
            st.push(SimTime::ZERO, EventKind::Control);
        }
        st.push(SimTime::ZERO, EventKind::Sample);

        let mut series: Vec<TimePoint> = Vec::new();
        // Control-handoff scratch: index lists rebuilt per tick, reused
        // across ticks, so the controller observes borrowed views into
        // the task arena instead of freshly cloned `Vec<Task>`s.
        let mut arrived_this_period: Vec<u32> = Vec::new();
        let mut pending_view: Vec<u32> = Vec::new();
        let mut running_view: Vec<u32> = Vec::new();
        let mut energy_cost = 0.0f64;
        let mut last_cost_energy = 0.0f64;

        // Event tallies for telemetry: plain locals on the hot loop,
        // flushed to the global registry once at the end of the run so
        // per-event overhead stays at an integer increment.
        let mut event_counts = [0u64; 6];
        const EV_ARRIVAL: usize = 0;
        const EV_FINISH: usize = 1;
        const EV_BOOT: usize = 2;
        const EV_CONTROL: usize = 3;
        const EV_SAMPLE: usize = 4;
        const EV_FAULT: usize = 5;

        // Pre-compute per-task schedulability against the catalog.
        let schedulable: Vec<bool> = tasks
            .iter()
            .map(|t| {
                self.config
                    .catalog
                    .iter()
                    .any(|m| t.demand.fits_within(m.capacity))
            })
            .collect();

        while let Some((now, kind)) = st.queue.pop() {
            if now > end {
                break;
            }
            event_counts[match kind {
                EventKind::Arrival(_) => EV_ARRIVAL,
                EventKind::Finish { .. } => EV_FINISH,
                EventKind::BootDone(_) => EV_BOOT,
                EventKind::Control => EV_CONTROL,
                EventKind::Sample => EV_SAMPLE,
                EventKind::Fault(_) | EventKind::FaultRecover(_) | EventKind::SlowBootEnd => {
                    EV_FAULT
                }
            }] += 1;
            match kind {
                EventKind::Arrival(idx) => {
                    if !schedulable[idx] {
                        st.unschedulable += 1;
                        continue;
                    }
                    arrived_this_period.push(idx as u32);
                    if !self.place_or_preempt(&mut st, tasks, idx, now) {
                        st.enqueue_pending(PendKey::of(&tasks[idx]), idx);
                    }
                }
                EventKind::Finish { task_idx, epoch } => {
                    if st.task_state.epoch[task_idx] != epoch {
                        continue; // stale: the task was evicted since
                    }
                    let task = &tasks[task_idx];
                    let machine = st.placements.remove(task_idx);
                    st.cluster.release(machine, task.demand, now);
                    self.scheduler.on_finished(task, machine, &st.cluster);
                    st.running_set.remove(&task_idx);
                    st.completed += 1;
                    self.drain(&mut st, tasks, now);
                }
                EventKind::BootDone(id) => {
                    if st.cluster.boot_complete(id, now) {
                        self.drain(&mut st, tasks, now);
                    }
                }
                EventKind::Control => {
                    if let Some(controller) = self.controller.as_mut() {
                        pending_view.clear();
                        pending_view.extend(st.pending.values().map(|&i| i as u32));
                        running_view.clear();
                        running_view.extend(st.running_set.iter().map(|&i| i as u32));
                        // The sim clock is virtual; this times the real
                        // cost of the provisioning hot path per period.
                        let decision =
                            harmony_telemetry::global().time("sim.controller_seconds", || {
                                controller.decide(&Observation {
                                    now,
                                    cluster: &st.cluster,
                                    pending: TaskView::indexed(tasks, &pending_view),
                                    arrived_last_period: TaskView::indexed(
                                        tasks,
                                        &arrived_this_period,
                                    ),
                                    running: TaskView::indexed(tasks, &running_view),
                                })
                            });
                        arrived_this_period.clear();
                        st.degradations.extend(controller.take_degradations());
                        let active = st.cluster.active_per_type();
                        for (ty, (&target, &current)) in
                            decision.target_active.iter().zip(&active).enumerate()
                        {
                            let ty_id = MachineTypeId(ty);
                            match target.cmp(&current) {
                                Ordering::Greater => {
                                    let (ids, ready) =
                                        st.cluster.power_on(ty_id, target - current, now);
                                    for id in ids {
                                        st.push(ready, EventKind::BootDone(id));
                                    }
                                }
                                Ordering::Less => {
                                    st.cluster.power_off_idle(ty_id, current - target, now);
                                }
                                Ordering::Equal => {}
                            }
                        }
                        if decision.repack {
                            st.migrations += repack(
                                &mut st.cluster,
                                &decision.target_active,
                                &mut st.placements,
                                tasks,
                                now,
                            );
                        }
                        let next = now + controller.control_period();
                        if next <= end {
                            st.push(next, EventKind::Control);
                        }
                        // Capacity targets and scheduler state (e.g. CBS
                        // quotas) just changed: give the queue a chance
                        // immediately.
                        self.drain(&mut st, tasks, now);
                    }
                }
                EventKind::Sample => {
                    st.cluster.accrue_all(now);
                    let energy = st.cluster.total_energy_wh();
                    energy_cost += self.config.price.cost_of_wh(energy - last_cost_energy, now);
                    last_cost_energy = energy;
                    series.push(TimePoint {
                        time: now,
                        power_watts: st.cluster.total_power_watts(),
                        active_per_type: st.cluster.active_per_type(),
                        used_per_type: st.cluster.used_per_type(),
                        pending_tasks: st.pending.len(),
                    });
                    let next = now + self.config.sample_interval;
                    if next <= end {
                        st.push(next, EventKind::Sample);
                    }
                }
                EventKind::Fault(ei) => {
                    let Some(plan) = plan.as_ref() else { continue };
                    let event = plan.events()[ei];
                    match event.kind {
                        FaultKind::MachineCrash { down } => {
                            let candidates = crash_candidates(&st);
                            let victim = injector
                                .as_mut()
                                .and_then(|inj| inj.pick_machine(&candidates));
                            if let Some(id) = victim {
                                // Evict residents first (the crash zeroes
                                // the machine's allocation wholesale, so
                                // no per-task release).
                                let residents = st.placements.on(id).to_vec();
                                let mut evicted = 0usize;
                                let mut failed = 0usize;
                                for t_idx in residents {
                                    if self.fault_interrupt(&mut st, tasks, t_idx, now, false) {
                                        evicted += 1;
                                    } else {
                                        failed += 1;
                                    }
                                }
                                let until = now + down;
                                if st.cluster.crash_machine(id, now, until) {
                                    st.push(until, EventKind::FaultRecover(id));
                                    st.faults.push(FaultRecord {
                                        at: now,
                                        kind: FaultRecordKind::MachineCrash {
                                            machine: id,
                                            evicted,
                                            failed,
                                        },
                                    });
                                    self.drain(&mut st, tasks, now);
                                }
                            }
                        }
                        FaultKind::SlowBoot { factor, duration } => {
                            st.cluster.set_boot_factor(factor);
                            st.push(now + duration, EventKind::SlowBootEnd);
                            st.faults.push(FaultRecord {
                                at: now,
                                kind: FaultRecordKind::SlowBootStart { factor },
                            });
                        }
                        FaultKind::TaskEviction { count } => {
                            // Evict the lowest-priority running tasks, a
                            // stand-in for the Google trace's EVICT
                            // events.
                            let mut running: Vec<usize> = st.running_set.iter().copied().collect();
                            running.sort_by_key(|&i| (tasks[i].priority.level(), i));
                            let mut evicted = 0usize;
                            let mut failed = 0usize;
                            for v in running.into_iter().take(count) {
                                if self.fault_interrupt(&mut st, tasks, v, now, true) {
                                    evicted += 1;
                                } else {
                                    failed += 1;
                                }
                            }
                            if evicted + failed > 0 {
                                st.faults.push(FaultRecord {
                                    at: now,
                                    kind: FaultRecordKind::TaskEviction { evicted, failed },
                                });
                                self.drain(&mut st, tasks, now);
                            }
                        }
                        FaultKind::ArrivalBurst { .. } => {
                            // The warp was applied before the run (see
                            // `effective_arrival`); record its size here
                            // so the report lists the burst in time
                            // order with the other faults.
                            let tasks_warped = burst_counts.get(&ei).copied().unwrap_or(0);
                            st.faults.push(FaultRecord {
                                at: now,
                                kind: FaultRecordKind::ArrivalBurst { tasks_warped },
                            });
                        }
                        FaultKind::SpotEviction { machine_type, count, down } => {
                            // A market reclaim is a typed multi-machine
                            // crash: pick up to `count` victims of the
                            // priced type (busy first, like crashes) and
                            // take each through the crash path.
                            let mut machines = 0usize;
                            let mut evicted = 0usize;
                            let mut failed = 0usize;
                            let until = now + down;
                            for _ in 0..count {
                                let candidates = spot_candidates(&st, machine_type);
                                let victim = injector
                                    .as_mut()
                                    .and_then(|inj| inj.pick_machine(&candidates));
                                let Some(id) = victim else { break };
                                let residents = st.placements.on(id).to_vec();
                                for t_idx in residents {
                                    if self.fault_interrupt(&mut st, tasks, t_idx, now, false) {
                                        evicted += 1;
                                    } else {
                                        failed += 1;
                                    }
                                }
                                if st.cluster.crash_machine(id, now, until) {
                                    machines += 1;
                                    st.push(until, EventKind::FaultRecover(id));
                                }
                            }
                            if machines > 0 {
                                st.faults.push(FaultRecord {
                                    at: now,
                                    kind: FaultRecordKind::SpotEviction {
                                        machine_type,
                                        machines,
                                        evicted,
                                        failed,
                                    },
                                });
                                self.drain(&mut st, tasks, now);
                            }
                        }
                    }
                }
                EventKind::FaultRecover(id) => {
                    if st.cluster.recover_machine(id, now) {
                        st.faults.push(FaultRecord {
                            at: now,
                            kind: FaultRecordKind::MachineRecovered { machine: id },
                        });
                        // A repaired machine comes straight back (no
                        // switch cost: this is repair, not provisioning).
                        if let Some(ready) = st.cluster.restart_machine(id, now) {
                            st.push(ready, EventKind::BootDone(id));
                        }
                    }
                }
                EventKind::SlowBootEnd => {
                    st.cluster.set_boot_factor(1.0);
                    st.faults.push(FaultRecord {
                        at: now,
                        kind: FaultRecordKind::SlowBootEnd,
                    });
                }
            }
        }

        st.cluster.accrue_all(end);
        let energy = st.cluster.total_energy_wh();
        energy_cost += self.config.price.cost_of_wh(energy - last_cost_energy, end);

        let registry = harmony_telemetry::global();
        for (name, n) in [
            ("sim.events.arrival", event_counts[EV_ARRIVAL]),
            ("sim.events.finish", event_counts[EV_FINISH]),
            ("sim.events.boot", event_counts[EV_BOOT]),
            ("sim.events.control", event_counts[EV_CONTROL]),
            ("sim.events.sample", event_counts[EV_SAMPLE]),
            ("sim.events.fault", event_counts[EV_FAULT]),
            ("sim.drain_passes", st.drain.passes),
            ("sim.drain_visits", st.drain.visits),
            ("sim.drain_limit_hits", st.drain.limit_hits),
        ] {
            if n > 0 {
                registry.counter(name).add(n);
            }
        }
        registry
            .gauge("sim.pending_peak")
            .set_max(st.pending_peak as f64);
        registry
            .gauge("sim.heap_peak")
            .set_max(st.queue.peak() as f64);

        SimReport {
            delays_by_group: st.delays,
            tasks_completed: st.completed,
            tasks_running_at_end: st.running_set.len(),
            tasks_pending_at_end: st.pending.len(),
            tasks_unschedulable: st.unschedulable,
            tasks_failed: st.failed,
            total_energy_wh: energy,
            energy_cost_dollars: energy_cost,
            switch_count: st.cluster.switch_count(),
            switch_cost_dollars: st.cluster.switch_cost(),
            migrations: st.migrations,
            evictions: st.evictions,
            faults: st.faults,
            degradations: st.degradations,
            series,
        }
    }

    /// Interrupts a running task because of an injected fault: removes
    /// it from its host (releasing the allocation when `release` —
    /// machine crashes zero the whole machine instead), keeps the work
    /// done so far, and re-queues it unless its retry budget is
    /// exhausted. Returns `true` if the task was re-queued, `false` if
    /// it was dropped as failed.
    fn fault_interrupt(
        &mut self,
        st: &mut RunState,
        tasks: &[Task],
        idx: usize,
        now: SimTime,
        release: bool,
    ) -> bool {
        let task = &tasks[idx];
        let machine = st.placements.remove(idx);
        if release {
            st.cluster.release(machine, task.demand, now);
        }
        self.scheduler.on_finished(task, machine, &st.cluster);
        st.running_set.remove(&idx);
        let ran = now
            .saturating_since(st.task_state.started_at[idx])
            .as_secs();
        st.task_state.remaining_secs[idx] = (st.task_state.remaining_secs[idx] - ran).max(1.0);
        st.task_state.epoch[idx] += 1;
        st.task_state.retries[idx] += 1;
        if st.task_state.retries[idx] > self.config.max_task_retries {
            st.failed += 1;
            false
        } else {
            st.task_state.queued_since[idx] = now;
            st.enqueue_pending(PendKey::of(task), idx);
            true
        }
    }

    /// Commits a placement: allocation, bookkeeping, finish event, delay
    /// record.
    fn commit_placement(
        &mut self,
        st: &mut RunState,
        tasks: &[Task],
        idx: usize,
        machine: MachineId,
        now: SimTime,
    ) {
        let task = &tasks[idx];
        self.scheduler.on_placed(task, machine, &st.cluster);
        let delay = now
            .saturating_since(st.task_state.queued_since[idx])
            .as_secs();
        st.delays[task.priority.group().index()].push(delay);
        st.running_set.insert(idx);
        st.placements.insert(idx, machine);
        st.task_state.started_at[idx] = now;
        let finish = now + SimDuration::from_secs(st.task_state.remaining_secs[idx]);
        let epoch = st.task_state.epoch[idx];
        st.push(
            finish,
            EventKind::Finish {
                task_idx: idx,
                epoch,
            },
        );
    }

    /// Tries regular placement, then (for non-gratis tasks, with
    /// preemption enabled) eviction of lower-priority-group tasks.
    /// Returns `true` if the task started executing.
    fn place_or_preempt(
        &mut self,
        st: &mut RunState,
        tasks: &[Task],
        idx: usize,
        now: SimTime,
    ) -> bool {
        if self.try_place_plain(st, tasks, idx, now) {
            return true;
        }
        self.try_preempt_place(st, tasks, idx, now)
    }

    fn try_place_plain(
        &mut self,
        st: &mut RunState,
        tasks: &[Task],
        idx: usize,
        now: SimTime,
    ) -> bool {
        let task = tasks[idx];
        if let Some(machine) = self.scheduler.place(&task, &st.cluster) {
            if st.cluster.allocate(machine, task.demand, now) {
                self.commit_placement(st, tasks, idx, machine, now);
                return true;
            }
        }
        false
    }

    fn try_preempt_place(
        &mut self,
        st: &mut RunState,
        tasks: &[Task],
        idx: usize,
        now: SimTime,
    ) -> bool {
        let task = tasks[idx];
        if !self.config.preemption || task.priority.group() == PriorityGroup::Gratis {
            return false;
        }
        let Some((machine, victims)) = find_preemption(st, tasks, &task) else {
            return false;
        };
        for victim in victims {
            let host = st.placements.remove(victim);
            debug_assert_eq!(host, machine);
            let vt = &tasks[victim];
            st.cluster.release(host, vt.demand, now);
            self.scheduler.on_finished(vt, host, &st.cluster);
            st.running_set.remove(&victim);
            // Suspend/resume: keep the work done so far, only the
            // remainder runs after re-placement. Bump the epoch so the
            // scheduled finish event is ignored.
            let ran = now
                .saturating_since(st.task_state.started_at[victim])
                .as_secs();
            st.task_state.remaining_secs[victim] =
                (st.task_state.remaining_secs[victim] - ran).max(1.0);
            st.task_state.epoch[victim] += 1;
            st.task_state.queued_since[victim] = now;
            st.enqueue_pending(PendKey::of(vt), victim);
            st.evictions += 1;
        }
        let ok = st.cluster.allocate(machine, task.demand, now);
        debug_assert!(ok, "eviction freed enough room");
        self.commit_placement(st, tasks, idx, machine, now);
        true
    }

    /// One pass over the pending queue in priority-then-FIFO order,
    /// placing what fits. The pass walks the queue in place: the map is
    /// taken out of `st` for the walk, so tasks re-queued during the pass
    /// (preemption victims) land in a fresh map and are not visited until
    /// the next pass; both are merged back at the end.
    fn drain(&mut self, st: &mut RunState, tasks: &[Task], now: SimTime) {
        let mut failures = 0usize;
        let mut placed_keys: Vec<PendKey> = Vec::new();
        st.drain.passes += 1;
        let pass = st.drain.passes;
        // Head-of-line guard: once a (priority, demand-shape) fails in
        // this pass, later tasks with the same (quantized) shape are
        // skipped without re-attempting placement, so a wall of blocked
        // large tasks cannot starve placeable small ones further down
        // the queue. A shape has failed in this pass iff its stamp
        // equals the pass number.
        //
        // Cheap capacity pre-filter: the per-type maximum free vector at
        // pass start only shrinks as the pass places tasks, so "does not
        // fit under the snapshot" is a safe O(types) reject. Preemptable
        // capacity is not covered by the filter, so non-gratis tasks
        // bypass it.
        let max_free: Vec<Resources> = (0..st.cluster.catalog().len())
            .map(|ty| st.cluster.max_free_of_type(MachineTypeId(ty)))
            .collect();
        // Preemption scans every machine, so drains get a small budget
        // of attempts per pass; arrivals always may preempt.
        const PREEMPT_BUDGET: usize = 16;
        let mut preempt_attempts = 0usize;
        let mut queue = std::mem::take(&mut st.pending);
        st.draining = queue.len();
        for (&key, &idx) in &queue {
            if failures >= self.config.drain_failure_limit {
                st.drain.limit_hits += 1;
                break;
            }
            st.drain.visits += 1;
            let task = &tasks[idx];
            let shape = st.drain.shape(idx, task);
            if st.drain.failed_in[shape] == pass {
                continue;
            }
            let fits = max_free.iter().any(|f| task.demand.fits_within(*f));
            let placed = if fits && self.try_place_plain(st, tasks, idx, now) {
                true
            } else if self.config.preemption
                && task.priority.group() != PriorityGroup::Gratis
                && preempt_attempts < PREEMPT_BUDGET
            {
                preempt_attempts += 1;
                self.try_preempt_place(st, tasks, idx, now)
            } else {
                false
            };
            if placed {
                placed_keys.push(key);
            } else if fits || task.priority.group() != PriorityGroup::Gratis {
                st.drain.failed_in[shape] = pass;
                failures += 1;
            }
        }
        for key in placed_keys {
            queue.remove(&key);
        }
        // Victims are lower-priority-group tasks than the one that
        // evicted them, so none of them shares a key with an entry the
        // pass placed.
        queue.extend(std::mem::take(&mut st.pending));
        st.pending = queue;
        st.draining = 0;
    }
}

/// Machines an injected crash may hit: busy active machines when any
/// exist (a crash that lands on an empty machine tests little),
/// otherwise any active machine.
fn crash_candidates(st: &RunState) -> Vec<MachineId> {
    let busy: Vec<MachineId> = st
        .cluster
        .machines()
        .iter()
        .filter(|m| m.is_active() && m.running_tasks() > 0)
        .map(|m| m.id())
        .collect();
    if !busy.is_empty() {
        return busy;
    }
    st.cluster
        .machines()
        .iter()
        .filter(|m| m.is_active())
        .map(|m| m.id())
        .collect()
}

/// Machines a spot reclaim may take: active machines of the priced
/// type, busy ones preferred (mirrors [`crash_candidates`], restricted
/// to one type).
fn spot_candidates(st: &RunState, ty: MachineTypeId) -> Vec<MachineId> {
    let busy: Vec<MachineId> = st
        .cluster
        .machines()
        .iter()
        .filter(|m| m.type_id() == ty && m.is_active() && m.running_tasks() > 0)
        .map(|m| m.id())
        .collect();
    if !busy.is_empty() {
        return busy;
    }
    st.cluster
        .machines()
        .iter()
        .filter(|m| m.type_id() == ty && m.is_active())
        .map(|m| m.id())
        .collect()
}

/// Finds the machine where evicting the fewest lower-priority-group
/// tasks makes room for `task`. Returns the machine and the victim set.
fn find_preemption(st: &RunState, tasks: &[Task], task: &Task) -> Option<(MachineId, Vec<usize>)> {
    let group = task.priority.group().index();
    let mut best: Option<(MachineId, Vec<usize>)> = None;
    for m in st.cluster.machines() {
        if !m.is_on() || !task.demand.fits_within(m.capacity()) {
            continue;
        }
        let mut lower: Vec<usize> = st
            .placements
            .on(m.id())
            .iter()
            .copied()
            .filter(|&i| tasks[i].priority.group().index() < group)
            .collect();
        if lower.is_empty() {
            continue;
        }
        // Evict the largest victims first to minimize the victim count.
        lower.sort_by(|&a, &b| {
            f64::total_cmp(
                &tasks[b].demand.sum_components(),
                &tasks[a].demand.sum_components(),
            )
        });
        let mut freed = m.free();
        let mut victims = Vec::new();
        for i in lower {
            if task.demand.fits_within(freed) {
                break;
            }
            freed += tasks[i].demand;
            victims.push(i);
        }
        if task.demand.fits_within(freed)
            && best.as_ref().is_none_or(|(_, b)| victims.len() < b.len())
        {
            let done = victims.len() == 1;
            best = Some((m.id(), victims));
            if done {
                break; // cannot do better than a single victim
            }
        }
    }
    best
}

/// Algorithm 1's re-packing step: for every machine type above its
/// target, migrate all tasks off the least-loaded machines onto busier
/// ones and power the emptied machines down. Returns the number of task
/// migrations performed.
fn repack(
    cluster: &mut Cluster,
    targets: &[usize],
    placements: &mut Placements,
    tasks: &[Task],
    now: SimTime,
) -> usize {
    const MOVE_CAP: usize = 2000;
    let mut moved = 0usize;
    for (m_ty, &target) in targets.iter().enumerate() {
        let ty = MachineTypeId(m_ty);
        let ids: Vec<MachineId> = cluster.machines_of_type(ty).to_vec();
        let active = ids
            .iter()
            .filter(|id| cluster.machine(**id).is_active())
            .count();
        let mut excess = active.saturating_sub(target);
        if excess == 0 {
            continue;
        }
        // Drain the least-loaded busy machines first (idle ones were
        // already powered off by the target application).
        let mut candidates: Vec<MachineId> = ids
            .into_iter()
            .filter(|id| cluster.machine(*id).is_on() && cluster.machine(*id).running_tasks() > 0)
            .collect();
        candidates.sort_by_key(|id| cluster.machine(*id).running_tasks());
        for src in candidates {
            if excess == 0 || moved >= MOVE_CAP {
                break;
            }
            let resident = placements.on(src).to_vec();
            if resident.is_empty() {
                continue;
            }
            let src_load = cluster.machine(src).running_tasks();
            // Two-phase: find a destination for every resident task on a
            // snapshot of free capacities; commit only if all fit.
            let mut free: Vec<(MachineId, Resources, usize)> = cluster
                .machines()
                .iter()
                .filter(|m| m.id() != src && m.is_on() && m.running_tasks() >= src_load)
                .map(|m| (m.id(), m.free(), m.running_tasks()))
                .collect();
            // Consolidate onto the busiest machines first.
            free.sort_by_key(|m| std::cmp::Reverse(m.2));
            let mut plan: Vec<(usize, MachineId)> = Vec::new();
            let mut feasible = true;
            for &idx in &resident {
                let demand = tasks[idx].demand;
                match free
                    .iter_mut()
                    .find(|(_, room, _)| demand.fits_within(*room))
                {
                    Some((dst, room, _)) => {
                        *room -= demand;
                        plan.push((idx, *dst));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible || plan.len() + moved > MOVE_CAP {
                continue;
            }
            for (idx, dst) in plan {
                let ok = cluster.migrate(src, dst, tasks[idx].demand, now);
                debug_assert!(ok, "snapshot said the move fits");
                placements.relocate(idx, dst);
                moved += 1;
            }
            if cluster.power_off_machine(src, now) {
                excess -= 1;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControlDecision, NullController};
    use crate::scheduler::FirstFit;
    use harmony_trace::{TraceConfig, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(TraceConfig::small().with_seed(11)).generate()
    }

    fn conservation(report: &SimReport, trace: &Trace) {
        assert_eq!(
            report.tasks_completed
                + report.tasks_running_at_end
                + report.tasks_pending_at_end
                + report.tasks_unschedulable
                + report.tasks_failed,
            trace.len()
        );
    }

    #[test]
    fn conservation_of_tasks() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50)).all_machines_on();
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        conservation(&report, &trace);
        assert!(report.tasks_completed > 0);
    }

    #[test]
    fn ample_capacity_means_zero_delay() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(20)).all_machines_on();
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        let stats = report.delay_stats_overall();
        assert!(
            stats.immediate_fraction > 0.95,
            "nearly all tasks should schedule immediately, got {}",
            stats.immediate_fraction
        );
        assert_eq!(report.tasks_pending_at_end, 0);
        assert_eq!(report.evictions, 0, "no pressure, no evictions");
    }

    #[test]
    fn starved_cluster_queues_tasks() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50));
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        assert_eq!(report.tasks_completed, 0);
        assert_eq!(
            report.tasks_pending_at_end + report.tasks_unschedulable,
            trace.len()
        );
        assert_eq!(report.total_energy_wh, 0.0);
    }

    #[test]
    fn energy_scales_with_active_machines() {
        let trace = small_trace();
        let all_on = SimulationConfig::new(MachineCatalog::table2().scaled(50)).all_machines_on();
        let on_report = Simulation::new(all_on, &trace, Box::new(FirstFit)).run();
        let half = SimulationConfig::new(MachineCatalog::table2().scaled(100)).all_machines_on();
        let half_report = Simulation::new(half, &trace, Box::new(FirstFit)).run();
        assert!(on_report.total_energy_wh > half_report.total_energy_wh);
        assert!(on_report.energy_cost_dollars > 0.0);
    }

    #[test]
    fn controller_tick_runs_and_samples_recorded() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
            .all_machines_on()
            .sample_interval(SimDuration::from_mins(10.0));
        let report = Simulation::new(config, &trace, Box::new(FirstFit))
            .with_controller(Box::new(NullController))
            .run();
        // 2-hour trace, 10-min samples → 13 samples (0..=120 min).
        assert_eq!(report.series.len(), 13);
        assert!(report
            .series
            .iter()
            .all(|p| p.active_per_type.iter().sum::<usize>() > 0));
    }

    /// A controller that powers everything on at the first tick.
    #[derive(Debug)]
    struct AllOnController;

    impl Controller for AllOnController {
        fn control_period(&self) -> SimDuration {
            SimDuration::from_mins(10.0)
        }

        fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
            ControlDecision::targets(
                observation
                    .cluster
                    .catalog()
                    .iter()
                    .map(|t| t.count)
                    .collect(),
            )
        }
    }

    #[test]
    fn controller_can_bring_capacity_up() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50));
        let report = Simulation::new(config, &trace, Box::new(FirstFit))
            .with_controller(Box::new(AllOnController))
            .run();
        assert!(report.tasks_completed > 0);
        assert!(report.switch_count > 0);
        assert!(report.switch_cost_dollars > 0.0);
        let last = report.series.last().unwrap();
        assert_eq!(
            last.active_per_type.iter().sum::<usize>(),
            140 + 30 + 20 + 10
        );
    }

    /// A controller that oscillates capacity to exercise off/on churn.
    #[derive(Debug)]
    struct FlipFlopController {
        tick: usize,
    }

    impl Controller for FlipFlopController {
        fn control_period(&self) -> SimDuration {
            SimDuration::from_mins(15.0)
        }

        fn decide(&mut self, observation: &Observation<'_>) -> ControlDecision {
            self.tick += 1;
            let full: Vec<usize> = observation
                .cluster
                .catalog()
                .iter()
                .map(|t| t.count)
                .collect();
            if self.tick.is_multiple_of(2) {
                ControlDecision::targets(vec![0; full.len()])
            } else {
                ControlDecision::targets(full)
            }
        }
    }

    #[test]
    fn churn_is_counted_and_stale_boots_ignored() {
        let trace = small_trace();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(200));
        let report = Simulation::new(config, &trace, Box::new(FirstFit))
            .with_controller(Box::new(FlipFlopController { tick: 0 }))
            .run();
        assert!(
            report.switch_count >= 4,
            "switches = {}",
            report.switch_count
        );
        conservation(&report, &trace);
    }

    #[test]
    fn unschedulable_tasks_are_counted() {
        let catalog = MachineCatalog::table2().scaled(50);
        let trace = small_trace();
        let big = trace
            .tasks()
            .iter()
            .filter(|t| !catalog.iter().any(|m| t.demand.fits_within(m.capacity)))
            .count();
        let config = SimulationConfig::new(catalog).all_machines_on();
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        assert_eq!(report.tasks_unschedulable, big);
    }

    #[test]
    fn preemption_prioritizes_production_under_pressure() {
        // A tight cluster: production tasks must evict gratis ones.
        let trace = small_trace();
        let catalog = MachineCatalog::table2().scaled(300); // 24/5/4/2
        let with = Simulation::new(
            SimulationConfig::new(catalog.clone()).all_machines_on(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        let without = Simulation::new(
            SimulationConfig::new(catalog)
                .all_machines_on()
                .without_preemption(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        conservation(&with, &trace);
        conservation(&without, &trace);
        assert!(with.evictions > 0, "pressure should trigger evictions");
        assert_eq!(without.evictions, 0);
        let prod_with = with.delay_stats(PriorityGroup::Production);
        let prod_without = without.delay_stats(PriorityGroup::Production);
        assert!(
            prod_with.immediate_fraction >= prod_without.immediate_fraction,
            "preemption must not hurt production immediacy: {} vs {}",
            prod_with.immediate_fraction,
            prod_without.immediate_fraction
        );
        // And preemption improves production's delay tail relative to
        // running without it (Fig. 4's mechanism: priorities let
        // production jump the line).
        assert!(
            prod_with.mean <= prod_without.mean,
            "preemption should reduce production mean delay: {} vs {}",
            prod_with.mean,
            prod_without.mean
        );
    }

    #[test]
    fn crash_storm_conserves_tasks_and_records_faults() {
        use crate::faults::FaultPlan;
        let trace = small_trace();
        let plan = FaultPlan::scenario("crash-storm", 7, trace.span()).unwrap();
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
            .all_machines_on()
            .with_faults(plan);
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        conservation(&report, &trace);
        assert!(
            report
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultRecordKind::MachineCrash { .. })),
            "crash-storm should land at least one crash"
        );
        // Every crash eventually recovers (downtimes are well inside the
        // span for this scenario, though late crashes may recover after
        // the horizon).
        let crashes = report
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultRecordKind::MachineCrash { .. }))
            .count();
        let recoveries = report
            .faults
            .iter()
            .filter(|f| matches!(f.kind, FaultRecordKind::MachineRecovered { .. }))
            .count();
        assert!(recoveries <= crashes);
    }

    #[test]
    fn fault_plans_are_deterministic() {
        use crate::faults::FaultPlan;
        let trace = small_trace();
        let run = |seed: u64| {
            let plan = FaultPlan::scenario("mixed", seed, trace.span()).unwrap();
            let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
                .all_machines_on()
                .with_faults(plan);
            Simulation::new(config, &trace, Box::new(FirstFit)).run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.tasks_completed, b.tasks_completed);
        assert_eq!(a.tasks_failed, b.tasks_failed);
    }

    #[test]
    fn arrival_burst_warps_but_conserves() {
        use crate::faults::{FaultKind, FaultPlan};
        let trace = small_trace();
        let plan = FaultPlan::new(3).with_event(
            SimTime::from_secs(600.0),
            FaultKind::ArrivalBurst {
                window: SimDuration::from_mins(30.0),
            },
        );
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
            .all_machines_on()
            .with_faults(plan);
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        conservation(&report, &trace);
        let warped = report.faults.iter().find_map(|f| match f.kind {
            FaultRecordKind::ArrivalBurst { tasks_warped } => Some(tasks_warped),
            _ => None,
        });
        assert!(
            warped.unwrap_or(0) > 0,
            "a 30-minute window should catch arrivals"
        );
    }

    #[test]
    fn retry_budget_zero_fails_interrupted_tasks() {
        use crate::faults::{FaultKind, FaultPlan};
        let trace = small_trace();
        let plan = FaultPlan::new(9).with_event(
            SimTime::from_secs(1800.0),
            FaultKind::TaskEviction { count: 5 },
        );
        let config = SimulationConfig::new(MachineCatalog::table2().scaled(50))
            .all_machines_on()
            .with_faults(plan)
            .max_task_retries(0);
        let report = Simulation::new(config, &trace, Box::new(FirstFit)).run();
        conservation(&report, &trace);
        let evicted_or_failed: usize = report
            .faults
            .iter()
            .map(|f| match f.kind {
                FaultRecordKind::TaskEviction { evicted, failed } => evicted + failed,
                _ => 0,
            })
            .sum();
        if evicted_or_failed > 0 {
            assert_eq!(
                report.tasks_failed, evicted_or_failed,
                "budget 0 drops every victim"
            );
        }
    }

    #[test]
    fn evicted_tasks_eventually_complete() {
        // Moderate pressure cluster; trace ends with idle tail so
        // requeued tasks can finish. Use a short trace with a long tail
        // by shrinking the span's arrival window via a small trace and
        // bigger catalog.
        let trace = small_trace();
        let catalog = MachineCatalog::table2().scaled(150);
        let report = Simulation::new(
            SimulationConfig::new(catalog).all_machines_on(),
            &trace,
            Box::new(FirstFit),
        )
        .run();
        conservation(&report, &trace);
        if report.evictions > 0 {
            // Evicted tasks either completed or are still accounted for.
            assert!(report.tasks_completed > 0);
        }
    }
}
