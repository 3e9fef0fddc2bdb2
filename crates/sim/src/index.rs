//! Incremental cluster-state index: per-type fit-summary segment trees.
//!
//! At paper scale (Table II: 10,000 machines) the engine cannot afford a
//! full machine scan per placement attempt or per drain pass. This index
//! maintains, incrementally under every machine mutation:
//!
//! * one **segment tree per machine type** whose leaves hold the free
//!   capacity of `On` machines (a sentinel below zero otherwise) and
//!   whose internal nodes summarize their subtree: the component-wise
//!   maximum of free capacity, and, for each aspect ratio `s` of a small
//!   fixed grid, the maximum over leaves of `min(free.cpu · s,
//!   free.mem)` (see [`RATIOS`]). "Does any machine of this type fit the
//!   demand?" is the root, and "lowest-id machine that fits" is a
//!   left-first descent that skips every subtree the summaries rule out;
//! * per-type **active** (on or booting) and **busy** (running at least
//!   one task) machine counts, so the per-control-tick
//!   [`crate::Cluster::active_per_type`]/[`crate::Cluster::used_per_type`]
//!   summaries are O(types) instead of O(machines).
//!
//! Why the ratio summaries: a machine fits only if *both* dimensions
//! fit, and maxima taken one dimension at a time cannot see that. Where
//! cpu-rich and memory-rich machines sit side by side, a subtree's
//! component-wise maximum passes "may fit" although no single machine in
//! it does, and the descent wanders. For demand `d` and `s = d.mem /
//! d.cpu`, a leaf fits iff `min(free.cpu · s, free.mem) ≥ d.mem`, so the
//! subtree maximum of that quantity is an exact test for the whole
//! subtree; at the two grid ratios that bracket `s` it is still a
//! necessary condition, and a tight one.
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
const SENTINEL: Resources = Resources { cpu: -1.0, mem: -1.0 };

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

/// The aspect ratios `s_k` (memory per unit of cpu) of the fit
/// summaries: the powers of two 1/16 … 8, so `free.cpu · s_k` is exact.
///
/// Margin argument: a leaf that passes `can_place(d)` has `free.cpu ≥
/// d.cpu − δ` and `free.mem ≥ d.mem − δ` with `δ` about `1e-9`, hence
/// `min(free.cpu · s, free.mem) ≥ min(d.cpu · s, d.mem) − δ · max(s, 1)`
/// for every `s > 0`. Pruning below `min(d.cpu · s, d.mem) − PRUNE_EPS ·
/// max(s, 1)` therefore never drops a subtree holding a fitting leaf.
///
/// Memory: one `f64` per ratio per node, 64 bytes a node on top of the
/// 16-byte maximum; about 1.5 MB for the 10,000-machine Table II
/// catalog (11,776 leaf slots over four types, twice that in nodes).
const RATIOS: [f64; 8] = [0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// One segment-tree node: the summaries of its subtree's leaves.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Component-wise maximum of free capacity.
    max: Resources,
    /// Per ratio `s_k`: the maximum of `min(free.cpu · s_k, free.mem)`.
    fit: [f64; RATIOS.len()],
}

impl Node {
    fn leaf(free: Resources) -> Self {
        Node { max: free, fit: RATIOS.map(|s| (free.cpu * s).min(free.mem)) }
    }

    fn join(a: &Node, b: &Node) -> Self {
        let mut fit = a.fit;
        for (f, g) in fit.iter_mut().zip(&b.fit) {
            *f = f.max(*g);
        }
        Node { max: a.max.max(b.max), fit }
    }
}

/// One demand, prepared for pruning: the two grid ratios that bracket
/// its own aspect ratio `d.mem / d.cpu` (both the end ratio outside the
/// grid), each with the summary value below which a subtree cannot hold
/// a fitting leaf.
///
/// At `s ≤ d.mem / d.cpu` the test demands a leaf with the full cpu and
/// at least `d.cpu · s` of memory; at `s ≥ d.mem / d.cpu`, the full
/// memory and at least `d.mem / s` of cpu. Each test is exact in one
/// dimension and off by less than the grid step (a factor of two) in the
/// other.
#[derive(Debug, Clone, Copy)]
struct Query {
    demand: Resources,
    tests: [(usize, f64); 2],
}

impl Query {
    fn new(demand: Resources) -> Self {
        // Grid ratios at or below `d.mem / d.cpu`, counted without
        // dividing, so a zero-cpu demand counts all of them.
        let below = RATIOS.iter().filter(|&&s| demand.mem >= demand.cpu * s).count();
        let test = |k: usize| {
            let s = RATIOS[k];
            (k, (demand.cpu * s).min(demand.mem) - PRUNE_EPS * s.max(1.0))
        };
        Query { demand, tests: [test(below.saturating_sub(1)), test(below.min(RATIOS.len() - 1))] }
    }

    /// `false` only if no leaf under `node` can place the demand. Outside
    /// the grid the ratio tests are loose in one dimension, which the
    /// component-wise maximum covers.
    #[inline]
    fn may_fit(&self, node: &Node) -> bool {
        self.tests.iter().all(|&(k, need)| node.fit[k] >= need) && may_fit(self.demand, node.max)
    }
}

#[cfg(test)]
thread_local! {
    /// Nodes popped by [`TypeTree::first_fit`] on this thread, so tests
    /// can measure how tightly the summaries prune.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A summary segment tree over one machine type's contiguous id range.
#[derive(Debug, Clone)]
struct TypeTree {
    /// First machine id of this type (ids are contiguous per type).
    base: usize,
    /// Number of machines of this type.
    n: usize,
    /// Leaf capacity (next power of two ≥ `n`, minimum 1).
    size: usize,
    /// 1-based heap layout: `seg[size + i]` is machine `base + i`.
    seg: Vec<Node>,
}

impl TypeTree {
    fn new(base: usize, n: usize) -> Self {
        let size = n.next_power_of_two().max(1);
        TypeTree { base, n, size, seg: vec![Node::leaf(SENTINEL); 2 * size] }
    }

    /// Updates one leaf and its ancestors' summaries.
    fn set(&mut self, global_id: usize, value: Resources) {
        let mut p = self.size + (global_id - self.base);
        self.seg[p] = Node::leaf(value);
        while p > 1 {
            p /= 2;
            self.seg[p] = Node::join(&self.seg[2 * p], &self.seg[2 * p + 1]);
        }
    }

    /// Component-wise max free over `On` machines of this type, clamped
    /// at zero — exactly the fold `ZERO.max(free_1).max(free_2)…` the
    /// reference drain pre-filter computes (sentinels vanish under the
    /// clamp; an all-off type yields `ZERO`).
    fn max_free(&self) -> Resources {
        self.seg[1].max.max(Resources::ZERO)
    }

    /// Lowest-id machine of this type where `can_place(demand)` holds.
    ///
    /// Left-first depth-first descent over subtrees whose summaries may
    /// fit the demand; each candidate leaf is re-verified against the
    /// real machine, so the result equals a linear
    /// `iter().find(can_place)`.
    fn first_fit(&self, machines: &[Machine], demand: Resources) -> Option<MachineId> {
        // A miss at the root's component-wise maximum builds no query.
        if self.n == 0 || !may_fit(demand, self.seg[1].max) {
            return None;
        }
        self.descend(machines, &Query::new(demand))
    }

    /// The left-first descent of [`TypeTree::first_fit`].
    fn descend(&self, machines: &[Machine], query: &Query) -> Option<MachineId> {
        // Explicit stack: at most one deferred right sibling per level,
        // so a fixed array avoids allocating in the hot loop.
        let mut stack = [0usize; 64];
        let mut sp = 0usize;
        stack[sp] = 1;
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let node = stack[sp];
            #[cfg(test)]
            VISITS.with(|v| v.set(v.get() + 1));
            if !query.may_fit(&self.seg[node]) {
                continue;
            }
            if node >= self.size {
                let idx = node - self.size;
                if idx < self.n {
                    let m = &machines[self.base + idx];
                    if m.can_place(query.demand) {
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
        self.trees.iter().find_map(|tree| tree.first_fit(machines, demand))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use harmony_model::{MachineCatalog, MachineTypeId, SimTime, SplitMix64};
    use proptest::prelude::*;

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
            assert_eq!(plain.first_fit_machine(demand), indexed.first_fit_machine(demand));
        }
        assert_eq!(plain.active_per_type(), indexed.active_per_type());
        assert_eq!(plain.used_per_type(), indexed.used_per_type());
        for ty in 0..4 {
            let ty = MachineTypeId(ty);
            assert_eq!(plain.max_free_of_type(ty), indexed.max_free_of_type(ty));
        }
    }

    /// All of `table2().scaled(10)` (700/150/100/50 machines) on, except
    /// about one in twenty left booting, and each machine used so that
    /// its free vector is cpu-rich and memory-poor or the reverse: the
    /// shape where component-wise maxima let a subtree pass although no
    /// machine in it fits.
    fn fragmented(seed: u64) -> Cluster {
        let mut rng = SplitMix64::new(seed);
        let mut c = Cluster::new(MachineCatalog::table2().scaled(10));
        c.enable_index();
        let t = SimTime::from_secs(500.0);
        for ty in 0..c.catalog().len() {
            let (ids, ready) = c.power_on(MachineTypeId(ty), usize::MAX, SimTime::ZERO);
            for id in ids {
                if !rng.chance(0.05) {
                    c.boot_complete(id, ready);
                }
            }
        }
        for i in 0..c.len() {
            let id = MachineId(i);
            let cap = c.machine(id).capacity();
            let (rich, poor) = (rng.range(0.3, 1.0), rng.range(0.0, 0.15));
            let free = if rng.chance(0.5) { (rich, poor) } else { (poor, rich) };
            let used = Resources::new(cap.cpu * (1.0 - free.0), cap.mem * (1.0 - free.1));
            c.allocate(id, used, t);
        }
        c
    }

    /// A random demand: zero cpu, zero memory, an aspect ratio outside
    /// the grid, or any shape, at sizes from tiny to larger than any
    /// machine's free room.
    fn random_demand(rng: &mut SplitMix64) -> Resources {
        let size = rng.range(0.0, 0.6);
        match rng.below(4) {
            0 => Resources::new(0.0, size),
            1 => Resources::new(size, 0.0),
            2 => {
                let ratio = 2f64.powf(rng.range(4.5, 10.0));
                if rng.chance(0.5) {
                    Resources::new(size, size / ratio)
                } else {
                    Resources::new(size / ratio, size)
                }
            }
            _ => Resources::new(size, rng.range(0.0, 0.6)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On fragmented clusters the pruned descent still returns the
        /// machine a lowest-id linear scan finds, per type and
        /// cluster-wide.
        #[test]
        fn fragmented_first_fit_matches_linear_scan(seed in any::<u64>()) {
            let c = fragmented(seed);
            let mut rng = SplitMix64::new(seed ^ 0x5eed);
            for _ in 0..200 {
                let demand = random_demand(&mut rng);
                let scan = c.machines().iter().find(|m| m.can_place(demand)).map(|m| m.id());
                prop_assert_eq!(c.first_fit_machine(demand), scan, "demand {:?}", demand);
                for ty in 0..c.catalog().len() {
                    let ty = MachineTypeId(ty);
                    let scan = c
                        .machines_of_type(ty)
                        .iter()
                        .find(|id| c.machine(**id).can_place(demand))
                        .copied();
                    prop_assert_eq!(c.first_fit_machine_of_type(ty, demand), scan);
                }
            }
        }
    }

    /// What one descent finds, and the nodes it pops.
    fn visits(descent: impl FnOnce() -> Option<MachineId>) -> (Option<MachineId>, u64) {
        let before = VISITS.with(std::cell::Cell::get);
        let found = descent();
        (found, VISITS.with(std::cell::Cell::get) - before)
    }

    /// The ratio tests cut the nodes a descent pops on a fragmented tree
    /// by far more than an order of magnitude against the component-wise
    /// maxima alone, and find the same machine.
    #[test]
    fn ratio_summaries_prune_fragmented_trees() {
        let c = fragmented(2013);
        let by_type: Vec<Vec<MachineId>> = (0..c.catalog().len())
            .map(|ty| c.machines_of_type(MachineTypeId(ty)).to_vec())
            .collect();
        let index = FreeIndex::new(c.machines(), &by_type);
        let tree = &index.trees[0]; // 700 machines, 1024 leaf slots
        let mut rng = SplitMix64::new(7);
        let (mut pruned, mut max_only, mut descents) = (0, 0, 0);
        for _ in 0..4000 {
            let demand = Resources::new(rng.range(0.0, 0.2), rng.range(0.0, 0.2));
            if !may_fit(demand, tree.seg[1].max) {
                continue;
            }
            // The same descent with the ratio tests disabled: what the
            // component-wise maxima alone prune.
            let blind = Query { demand, tests: [(0, f64::NEG_INFINITY); 2] };
            let (found, n) = visits(|| tree.descend(c.machines(), &Query::new(demand)));
            let (found_blind, n_blind) = visits(|| tree.descend(c.machines(), &blind));
            assert_eq!(found, found_blind, "demand {demand:?}");
            pruned += n;
            max_only += n_blind;
            descents += 1;
        }
        // Measured: 2,807 against 198,869 nodes over 490 descents; one
        // clean root-to-leaf descent of this tree pops about
        // 2 · log2(1024) = 20.
        assert!(descents >= 400, "{descents} demands past the root's maxima");
        assert!(pruned * 10 < max_only, "{pruned} vs {max_only} nodes");
    }
}
