//! Fixed-dimension resource vectors.
//!
//! The paper's set of resource types `R` is `{CPU, memory}` for the Google
//! trace (Section III: "the dataset does not provide task size for other
//! resource types such as disk"), and all demands/capacities are normalized
//! to `[0, 1]` relative to the largest machine.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of resource dimensions (`|R|` in the paper): CPU and memory.
pub const NUM_RESOURCES: usize = 2;

/// A resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Normalized CPU (cores relative to the largest machine).
    Cpu,
    /// Normalized memory (bytes relative to the largest machine).
    Memory,
}

impl ResourceKind {
    /// All resource dimensions, in index order.
    pub const ALL: [ResourceKind; NUM_RESOURCES] = [ResourceKind::Cpu, ResourceKind::Memory];

    /// The dense index of this dimension inside a [`Resources`] vector.
    pub fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Cpu => f.write_str("cpu"),
            ResourceKind::Memory => f.write_str("memory"),
        }
    }
}

/// A `(cpu, memory)` resource vector.
///
/// Used for task demands `s_i`, container sizes `c_n`, machine capacities
/// `C_m`, and utilizations. Components are plain `f64`s normalized against
/// the largest machine in the cluster, following the Google-trace
/// convention.
///
/// # Examples
///
/// ```
/// use harmony_model::Resources;
///
/// let demand = Resources::new(0.25, 0.125);
/// let capacity = Resources::new(0.5, 0.5);
/// assert!(demand.fits_within(capacity));
/// assert_eq!(demand + demand, Resources::new(0.5, 0.25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// Normalized CPU share.
    pub cpu: f64,
    /// Normalized memory share.
    pub mem: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources { cpu: 0.0, mem: 0.0 };

    /// A full normalized unit of every resource (the largest machine).
    pub const ONE: Resources = Resources { cpu: 1.0, mem: 1.0 };

    /// Creates a resource vector from CPU and memory shares.
    pub fn new(cpu: f64, mem: f64) -> Self {
        Resources { cpu, mem }
    }

    /// Creates a vector with the same value in every dimension.
    pub fn splat(v: f64) -> Self {
        Resources { cpu: v, mem: v }
    }

    /// Returns the component for `kind`.
    pub fn get(self, kind: ResourceKind) -> f64 {
        self[kind.index()]
    }

    /// Sets the component for `kind`.
    pub fn set(&mut self, kind: ResourceKind, v: f64) {
        self[kind.index()] = v;
    }

    /// `true` if every component of `self` is `<=` the corresponding
    /// component of `capacity` (within a tiny tolerance for accumulated
    /// floating-point error).
    pub fn fits_within(self, capacity: Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.cpu <= capacity.cpu + EPS && self.mem <= capacity.mem + EPS
    }

    /// Component-wise maximum.
    pub fn max(self, other: Resources) -> Resources {
        Resources::new(self.cpu.max(other.cpu), self.mem.max(other.mem))
    }

    /// Component-wise minimum.
    pub fn min(self, other: Resources) -> Resources {
        Resources::new(self.cpu.min(other.cpu), self.mem.min(other.mem))
    }

    /// Sum of components (used for effective-utilization arguments in
    /// Lemma 1, where effective utilization is `1/|R| · Σ_r u_r`).
    pub fn sum_components(self) -> f64 {
        self.cpu + self.mem
    }

    /// Component-wise division, mapping `x/0` to `0` — used to turn an
    /// absolute usage into a utilization against a capacity that may have a
    /// zero dimension.
    pub fn utilization_of(self, capacity: Resources) -> Resources {
        fn ratio(x: f64, c: f64) -> f64 {
            if c > 0.0 {
                x / c
            } else {
                0.0
            }
        }
        Resources::new(ratio(self.cpu, capacity.cpu), ratio(self.mem, capacity.mem))
    }

    /// `true` if every component is finite and `>= 0`.
    pub fn is_valid(self) -> bool {
        self.cpu.is_finite() && self.mem.is_finite() && self.cpu >= 0.0 && self.mem >= 0.0
    }

    /// Clamps every component to `[0, hi]`.
    pub fn clamp_components(self, hi: f64) -> Resources {
        Resources::new(self.cpu.clamp(0.0, hi), self.mem.clamp(0.0, hi))
    }

    /// Iterator over `(kind, value)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (ResourceKind, f64)> {
        ResourceKind::ALL.into_iter().map(move |k| (k, self.get(k)))
    }
}

impl Index<usize> for Resources {
    type Output = f64;

    #[expect(
        clippy::panic,
        reason = "Out-of-range indexing panics by the `Index` contract, as for slices; every in-tree caller iterates 0..NUM_RESOURCES."
    )]
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.cpu,
            1 => &self.mem,
            _ => panic!("resource index {index} out of range (NUM_RESOURCES = {NUM_RESOURCES})"),
        }
    }
}

impl IndexMut<usize> for Resources {
    #[expect(
        clippy::panic,
        reason = "Out-of-range indexing panics by the `Index` contract, as for slices."
    )]
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        match index {
            0 => &mut self.cpu,
            1 => &mut self.mem,
            _ => panic!("resource index {index} out of range (NUM_RESOURCES = {NUM_RESOURCES})"),
        }
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources::new(self.cpu + rhs.cpu, self.mem + rhs.mem)
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu += rhs.cpu;
        self.mem += rhs.mem;
    }
}

impl Sub for Resources {
    type Output = Resources;

    fn sub(self, rhs: Resources) -> Resources {
        Resources::new(self.cpu - rhs.cpu, self.mem - rhs.mem)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        self.cpu -= rhs.cpu;
        self.mem -= rhs.mem;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;

    fn mul(self, rhs: f64) -> Resources {
        Resources::new(self.cpu * rhs, self.mem * rhs)
    }
}

impl Div<f64> for Resources {
    type Output = Resources;

    fn div(self, rhs: f64) -> Resources {
        Resources::new(self.cpu / rhs, self.mem / rhs)
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, Add::add)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(cpu={:.4}, mem={:.4})", self.cpu, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_within_is_componentwise() {
        let cap = Resources::new(0.5, 0.5);
        assert!(Resources::new(0.5, 0.5).fits_within(cap));
        assert!(Resources::new(0.0, 0.0).fits_within(cap));
        assert!(!Resources::new(0.6, 0.1).fits_within(cap));
        assert!(!Resources::new(0.1, 0.6).fits_within(cap));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let approx = |x: Resources, y: Resources| {
            assert!((x.cpu - y.cpu).abs() < 1e-12 && (x.mem - y.mem).abs() < 1e-12, "{x} != {y}");
        };
        let a = Resources::new(0.3, 0.2);
        let b = Resources::new(0.1, 0.05);
        approx(a + b - b, a);
        let mut c = a;
        c += b;
        c -= b;
        approx(c, a);
        approx((a * 2.0) / 2.0, a);
    }

    #[test]
    fn indexing_matches_kinds() {
        let r = Resources::new(0.7, 0.4);
        assert_eq!(r[ResourceKind::Cpu.index()], 0.7);
        assert_eq!(r[ResourceKind::Memory.index()], 0.4);
        assert_eq!(r.get(ResourceKind::Cpu), 0.7);
        let mut r2 = r;
        r2.set(ResourceKind::Memory, 0.9);
        assert_eq!(r2.mem, 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let r = Resources::ZERO;
        let _ = r[2];
    }

    #[test]
    fn utilization_handles_zero_capacity() {
        let used = Resources::new(0.5, 0.25);
        let util = used.utilization_of(Resources::new(1.0, 0.0));
        assert_eq!(util, Resources::new(0.5, 0.0));
    }

    #[test]
    fn max_and_bottleneck() {
        let a = Resources::new(0.2, 0.8);
        let b = Resources::new(0.5, 0.1);
        assert_eq!(a.max(b), Resources::new(0.5, 0.8));
        assert_eq!(a.min(b), Resources::new(0.2, 0.1));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Resources = (0..4).map(|i| Resources::splat(i as f64)).sum();
        assert_eq!(total, Resources::splat(6.0));
    }

    #[test]
    fn validity() {
        assert!(Resources::new(0.0, 0.0).is_valid());
        assert!(!Resources::new(-0.1, 0.0).is_valid());
        assert!(!Resources::new(f64::NAN, 0.0).is_valid());
        assert!(!Resources::new(0.0, f64::INFINITY).is_valid());
    }

    #[test]
    fn display_formats() {
        let s = format!("{}", Resources::new(0.5, 0.25));
        assert!(s.contains("cpu=0.5"), "{s}");
        assert_eq!(format!("{}", ResourceKind::Cpu), "cpu");
        assert_eq!(format!("{}", ResourceKind::Memory), "memory");
    }
}
