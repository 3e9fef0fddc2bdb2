//! Incremental cluster-state index: per-type max-free segment trees.
//!
//! At paper scale (Table II: 10,000 machines) the engine cannot afford a
//! full machine scan per placement attempt or per drain pass. This index
//! maintains, incrementally under every machine mutation:
//!
//! * one **segment tree per machine type** whose leaves hold the free
//!   capacity of `On` machines (a sentinel below zero otherwise) and
//!   whose internal nodes hold the component-wise maximum — so "does any
//!   machine of this type fit the demand?" is the O(1) root and
//!   "lowest-id machine that fits" is an O(log n) left-first descent;
//! * per-type **active** (on or booting) and **busy** (running at least
//!   one task) machine counts, so the per-control-tick
//!   [`crate::Cluster::active_per_type`]/[`crate::Cluster::used_per_type`]
//!   summaries are O(types) instead of O(machines).
//!
//! Determinism: the descent prunes with a small epsilon margin (strictly
//! more permissive than [`crate::Machine::can_place`]'s own tolerance)
//! and re-verifies `can_place` exactly at each leaf, so it returns
//! *exactly* the machine a lowest-id linear scan would — the reference
//! and indexed engines produce byte-identical reports (see
//! `tests/determinism.rs` and the cross-engine property suite in
//! `crates/sim/src/engine_equivalence.rs`).

use harmony_model::Resources;

use crate::machine::{Machine, MachineId};

/// Leaf value for machines that cannot host anything (off, booting, or
/// failed): strictly below any real demand even after the pruning
/// epsilon, so such leaves are never descended into.
const SENTINEL: Resources = Resources {
    cpu: -1.0,
    mem: -1.0,
};

/// Pruning margin for internal nodes. `Machine::can_place` tolerates
/// `1e-9` of accumulated float error; pruning must never be *stricter*
/// than the leaf test, so internal comparisons get a wider margin. A
/// false positive only costs a wasted descent; a false negative would
/// change placement decisions.
const PRUNE_EPS: f64 = 1e-6;

#[inline]
fn may_fit(demand: Resources, node_max: Resources) -> bool {
    demand.cpu <= node_max.cpu + PRUNE_EPS && demand.mem <= node_max.mem + PRUNE_EPS
}

/// A max segment tree over one machine type's contiguous id range.
#[derive(Debug, Clone)]
struct TypeTree {
    /// First machine id of this type (ids are contiguous per type).
    base: usize,
    /// Number of machines of this type.
    n: usize,
    /// Leaf capacity (next power of two ≥ `n`, minimum 1).
    size: usize,
    /// 1-based heap layout: `seg[size + i]` is machine `base + i`.
    seg: Vec<Resources>,
}

impl TypeTree {
    fn new(base: usize, n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        TypeTree {
            base,
            n,
            size,
            seg: vec![SENTINEL; 2 * size],
        }
    }

    /// Updates one leaf and its ancestor maxima.
    fn set(&mut self, global_id: usize, value: Resources) {
        let mut p = self.size + (global_id - self.base);
        self.seg[p] = value;
        p /= 2;
        while p >= 1 {
            self.seg[p] = self.seg[2 * p].max(self.seg[2 * p + 1]);
            if p == 1 {
                break;
            }
            p /= 2;
        }
    }

    /// Component-wise max free over `On` machines of this type, clamped
    /// at zero — exactly the fold `ZERO.max(free_1).max(free_2)…` the
    /// reference drain pre-filter computes (sentinels vanish under the
    /// clamp; an all-off type yields `ZERO`).
    fn max_free(&self) -> Resources {
        self.seg[1].max(Resources::ZERO)
    }

    /// Lowest-id machine of this type where `can_place(demand)` holds.
    ///
    /// Left-first depth-first descent over subtrees whose max may fit
    /// the demand; each candidate leaf is re-verified against the real
    /// machine, so the result equals a linear `iter().find(can_place)`.
    fn first_fit(&self, machines: &[Machine], demand: Resources) -> Option<MachineId> {
        if self.n == 0 || !may_fit(demand, self.seg[1]) {
            return None;
        }
        // Explicit stack: at most one deferred right sibling per level,
        // so a fixed array avoids allocating in the hot loop.
        let mut stack = [0usize; 64];
        let mut sp = 0usize;
        stack[sp] = 1;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let node = stack[sp];
            if !may_fit(demand, self.seg[node]) {
                continue;
            }
            if node >= self.size {
                let idx = node - self.size;
                if idx < self.n {
                    let m = &machines[self.base + idx];
                    if m.can_place(demand) {
                        return Some(m.id());
                    }
                }
                continue;
            }
            debug_assert!(sp + 2 <= stack.len(), "descent deeper than stack");
            stack[sp] = 2 * node + 1; // right — visited second
            stack[sp + 1] = 2 * node; // left — popped first
            sp += 2;
        }
        None
    }
}

/// The incremental index over a whole cluster. Owned by
/// [`crate::Cluster`] and refreshed via [`FreeIndex::touch`] after every
/// machine mutation.
#[derive(Debug, Clone)]
pub(crate) struct FreeIndex {
    trees: Vec<TypeTree>,
    active: Vec<usize>,
    busy: Vec<usize>,
    /// Per-machine cached flags (bit 0: active, bit 1: busy) so counter
    /// maintenance is a diff, not a rescan.
    flags: Vec<u8>,
    /// Machine id → type index, for O(1) touch routing.
    type_of: Vec<usize>,
}

impl FreeIndex {
    /// Builds the index from the current machine population. `by_type`
    /// holds the contiguous id ranges, in type order.
    pub(crate) fn new(machines: &[Machine], by_type: &[Vec<MachineId>]) -> Self {
        let mut trees = Vec::with_capacity(by_type.len());
        let mut type_of = vec![0usize; machines.len()];
        for (ty, ids) in by_type.iter().enumerate() {
            let base = ids.first().map_or(0, |id| id.0);
            trees.push(TypeTree::new(base, ids.len()));
            for id in ids {
                type_of[id.0] = ty;
            }
        }
        let mut index = FreeIndex {
            trees,
            active: vec![0; by_type.len()],
            busy: vec![0; by_type.len()],
            flags: vec![0; machines.len()],
            type_of,
        };
        for m in machines {
            index.touch(m);
        }
        index
    }

    /// Re-reads one machine's state into the index (leaf value and
    /// active/busy counters). Must be called after *every* mutation of
    /// the machine; [`crate::Cluster`] funnels all mutations through its
    /// methods, each of which does so.
    pub(crate) fn touch(&mut self, m: &Machine) {
        let id = m.id().0;
        let ty = self.type_of[id];
        let new_flags = u8::from(m.is_active()) | (u8::from(m.running_tasks() > 0) << 1);
        let old_flags = self.flags[id];
        if (old_flags ^ new_flags) & 1 != 0 {
            if new_flags & 1 != 0 {
                self.active[ty] += 1;
            } else {
                self.active[ty] -= 1;
            }
        }
        if (old_flags ^ new_flags) & 2 != 0 {
            if new_flags & 2 != 0 {
                self.busy[ty] += 1;
            } else {
                self.busy[ty] -= 1;
            }
        }
        self.flags[id] = new_flags;
        let leaf = if m.is_on() { m.free() } else { SENTINEL };
        self.trees[ty].set(id, leaf);
    }

    /// Per-type active (on or booting) machine counts.
    pub(crate) fn active_per_type(&self) -> Vec<usize> {
        self.active.clone()
    }

    /// Per-type counts of machines running at least one task.
    pub(crate) fn busy_per_type(&self) -> Vec<usize> {
        self.busy.clone()
    }

    /// Component-wise max free capacity over `On` machines of one type,
    /// clamped at zero.
    pub(crate) fn max_free_of_type(&self, ty: usize) -> Resources {
        self.trees[ty].max_free()
    }

    /// Lowest-id machine of type `ty` that can place `demand`.
    pub(crate) fn first_fit_of_type(
        &self,
        machines: &[Machine],
        ty: usize,
        demand: Resources,
    ) -> Option<MachineId> {
        self.trees[ty].first_fit(machines, demand)
    }

    /// Lowest-id machine cluster-wide that can place `demand`. Machine
    /// ids are contiguous per type in type order, so scanning types in
    /// order preserves global id order.
    pub(crate) fn first_fit(&self, machines: &[Machine], demand: Resources) -> Option<MachineId> {
        self.trees
            .iter()
            .find_map(|tree| tree.first_fit(machines, demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use harmony_model::{MachineCatalog, MachineTypeId, SimTime};

    /// Compares every index query against the linear-scan truth.
    fn assert_index_matches(c: &Cluster) {
        let types = c.catalog().len();
        // Counters.
        let active_scan: Vec<usize> = (0..types)
            .map(|ty| {
                c.machines_of_type(MachineTypeId(ty))
                    .iter()
                    .filter(|id| c.machine(**id).is_active())
                    .count()
            })
            .collect();
        assert_eq!(c.active_per_type(), active_scan);
        let busy_scan: Vec<usize> = (0..types)
            .map(|ty| {
                c.machines_of_type(MachineTypeId(ty))
                    .iter()
                    .filter(|id| c.machine(**id).running_tasks() > 0)
                    .count()
            })
            .collect();
        assert_eq!(c.used_per_type(), busy_scan);
        // Max free and first fit, across a spread of demands.
        for ty in 0..types {
            let mut max = Resources::ZERO;
            for &id in c.machines_of_type(MachineTypeId(ty)) {
                let m = c.machine(id);
                if m.is_on() {
                    max = max.max(m.free());
                }
            }
            assert_eq!(c.max_free_of_type(MachineTypeId(ty)), max);
        }
        for demand in [
            Resources::new(0.01, 0.01),
            Resources::new(0.05, 0.02),
            Resources::new(0.2, 0.2),
            Resources::new(0.5, 0.25),
            Resources::new(1.0, 1.0),
        ] {
            let scan = c.machines().iter().find(|m| m.can_place(demand)).map(|m| m.id());
            assert_eq!(c.first_fit_machine(demand), scan, "demand {demand:?}");
            for ty in 0..types {
                let ty = MachineTypeId(ty);
                let scan = c
                    .machines_of_type(ty)
                    .iter()
                    .find(|id| c.machine(**id).can_place(demand))
                    .copied();
                assert_eq!(c.first_fit_machine_of_type(ty, demand), scan);
            }
        }
    }

    #[test]
    fn index_tracks_mutations_exactly() {
        let mut c = Cluster::new(MachineCatalog::table2().scaled(200)); // 35/7/5/2
        c.enable_index();
        assert_index_matches(&c);
        // Power a mixed population on.
        let mut ready_times = Vec::new();
        for ty in 0..4 {
            let (ids, ready) = c.power_on(MachineTypeId(ty), 3, SimTime::ZERO);
            ready_times.push((ids, ready));
        }
        assert_index_matches(&c);
        for (ids, ready) in &ready_times {
            for id in ids {
                c.boot_complete(*id, *ready);
            }
        }
        assert_index_matches(&c);
        let t = SimTime::from_secs(500.0);
        // Allocate, release, migrate.
        let ids = c.machines_of_type(MachineTypeId(0)).to_vec();
        assert!(c.allocate(ids[0], Resources::new(0.05, 0.04), t));
        assert!(c.allocate(ids[1], Resources::new(0.02, 0.02), t));
        assert_index_matches(&c);
        assert!(c.migrate(ids[1], ids[2], Resources::new(0.02, 0.02), t));
        assert_index_matches(&c);
        c.release(ids[0], Resources::new(0.05, 0.04), t);
        assert_index_matches(&c);
        // Crash / recover / restart.
        let until = t + harmony_model::SimDuration::from_secs(600.0);
        assert!(c.crash_machine(ids[2], t, until));
        assert_index_matches(&c);
        assert!(c.recover_machine(ids[2], until));
        assert_index_matches(&c);
        let ready = c.restart_machine(ids[2], until).unwrap();
        assert_index_matches(&c);
        assert!(c.boot_complete(ids[2], ready));
        assert_index_matches(&c);
        // Power down.
        assert!(c.power_off_idle(MachineTypeId(0), 2, ready) > 0);
        assert_index_matches(&c);
    }

    #[test]
    fn indexed_queries_match_unindexed_cluster() {
        let build = |indexed: bool| {
            let mut c = Cluster::new(MachineCatalog::table2().scaled(500)); // 14/3/2/1
            if indexed {
                c.enable_index();
            }
            for ty in 0..4 {
                let (ids, ready) = c.power_on(MachineTypeId(ty), usize::MAX, SimTime::ZERO);
                for id in ids {
                    c.boot_complete(id, ready);
                }
            }
            c
        };
        let plain = build(false);
        let indexed = build(true);
        for demand in [Resources::new(0.05, 0.05), Resources::new(0.3, 0.2)] {
            assert_eq!(
                plain.first_fit_machine(demand),
                indexed.first_fit_machine(demand)
            );
        }
        assert_eq!(plain.active_per_type(), indexed.active_per_type());
        assert_eq!(plain.used_per_type(), indexed.used_per_type());
        for ty in 0..4 {
            let ty = MachineTypeId(ty);
            assert_eq!(plain.max_free_of_type(ty), indexed.max_free_of_type(ty));
        }
    }
}
