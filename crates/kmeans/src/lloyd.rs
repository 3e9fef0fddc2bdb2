//! Lloyd's algorithm with k-means++ seeding and Hamerly's exact bounds on
//! the assignment step.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::distance_sq;
use crate::{Dataset, KMeansError};

/// Configurable K-means clusterer (builder).
///
/// Defaults: k-means++ seeding, 100 Lloyd iterations max, convergence
/// tolerance `1e-8` on total centroid movement, 4 restarts keeping the
/// lowest-inertia run, seed 0.
///
/// The assignment step keeps Hamerly's triangle-inequality bounds: per
/// point, an upper bound on the distance to its own centroid and a lower
/// bound on the distance to any other. A point is rescanned only when the
/// bounds fail to prove its centroid strictly nearest, so the result is
/// plain Lloyd's bit for bit at a fraction of the `n × k` distances.
///
/// # Examples
///
/// ```
/// use harmony_kmeans::{Dataset, KMeans};
///
/// let data = Dataset::from_rows(vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]])?;
/// let model = KMeans::new(2).seed(1).max_iterations(50).fit(&data)?;
/// let mut centers: Vec<f64> = model.centroids().iter().map(|c| c[0]).collect();
/// centers.sort_by(f64::total_cmp);
/// assert!((centers[0] - 0.1).abs() < 1e-9);
/// assert!((centers[1] - 10.1).abs() < 1e-9);
/// # Ok::<(), harmony_kmeans::KMeansError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iterations: usize,
    tolerance: f64,
    restarts: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a clusterer targeting `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeans { k, max_iterations: 100, tolerance: 1e-8, restarts: 4, seed: 0 }
    }

    /// Sets the RNG seed; fits are fully deterministic for a fixed seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps Lloyd iterations per restart.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the convergence tolerance on the sum of squared centroid
    /// movements.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the number of independent restarts; the lowest-inertia run is
    /// kept.
    pub fn restarts(mut self, n: usize) -> Self {
        self.restarts = n.max(1);
        self
    }

    /// Runs the clustering.
    ///
    /// # Errors
    ///
    /// * [`KMeansError::ZeroK`] if `k == 0`.
    /// * [`KMeansError::TooFewPoints`] if the dataset has fewer than `k`
    ///   rows.
    pub fn fit(&self, data: &Dataset) -> Result<KMeansModel, KMeansError> {
        if self.k == 0 {
            return Err(KMeansError::ZeroK);
        }
        if data.len() < self.k {
            return Err(KMeansError::TooFewPoints { k: self.k, points: data.len() });
        }
        let mut best: Option<KMeansModel> = None;
        for r in 0..self.restarts {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(r as u64));
            let model = self.fit_once(data, &mut rng);
            if best.as_ref().is_none_or(|b| model.inertia() < b.inertia()) {
                best = Some(model);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "Invariant: `restarts` is clamped to >= 1 by the builder, so the loop above always produced at least one model."
        )]
        Ok(best.expect("at least one restart ran"))
    }

    fn fit_once(&self, data: &Dataset, rng: &mut StdRng) -> KMeansModel {
        let dim = data.dim();
        let mut centroids = plus_plus_init(data, self.k, rng);
        let mut assignments = vec![0usize; data.len()];
        let mut bounds = Bounds::new(data.len(), self.k);
        let mut drift = vec![0.0f64; self.k];
        for _ in 0..self.max_iterations.max(1) {
            // Assignment step.
            bounds.assign(data, &centroids, &mut assignments);
            // Update step.
            let mut sums = vec![vec![0.0f64; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, row) in data.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(row) {
                    *s += v;
                }
            }
            // Empty-cluster repair: re-seed an empty centroid at the point
            // farthest from its current centroid.
            for c in 0..self.k {
                if counts[c] == 0 {
                    let far = farthest_point(data, &centroids, &assignments);
                    sums[c] = data.row(far).to_vec();
                    counts[c] = 1;
                    assignments[far] = c;
                    bounds.forget(far);
                }
            }
            let mut movement = 0.0;
            for c in 0..self.k {
                let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                let moved = distance_sq(&new, &centroids[c]);
                movement += moved;
                drift[c] = moved.sqrt();
                centroids[c] = new;
            }
            if movement <= self.tolerance {
                break;
            }
            bounds.advance(&drift, &assignments);
        }
        // Final assignment pass so labels match the converged centroids.
        let mut inertia = 0.0;
        for (i, row) in data.iter().enumerate() {
            let (c, d2) = nearest_centroid(row, &centroids);
            assignments[i] = c;
            inertia += d2;
        }
        KMeansModel { centroids, assignments, inertia }
    }
}

/// k-means++ seeding: the first centroid is uniform, each subsequent
/// centroid is sampled with probability proportional to its squared
/// distance from the nearest centroid chosen so far.
fn plus_plus_init(data: &Dataset, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = rng.gen_range(0..data.len());
    centroids.push(data.row(first).to_vec());
    let mut dists: Vec<f64> = (0..data.len()).map(|i| data.distance_sq(i, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let idx = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.gen_range(0..data.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = data.row(idx).to_vec();
        for (i, d) in dists.iter_mut().enumerate() {
            *d = d.min(data.distance_sq(i, &c));
        }
        centroids.push(c);
    }
    centroids
}

/// Slack on every bound comparison, relative to the bound plus an
/// absolute part. The bounds are sums of rounded square roots, so a skip
/// must clear them by more than their rounding error; ties and near-ties
/// fall through to the exact scan.
const SLACK: f64 = 1e-9;

/// Hamerly's triangle-inequality bounds for the assignment step
/// ("Making k-means even faster", SDM 2010). A point is skipped only
/// when its bounds prove its centroid strictly nearer than every other;
/// every other point is scanned exactly as plain Lloyd scans it, so the
/// assignments are Lloyd's bit for bit. Memory is O(n + k).
#[derive(Debug)]
struct Bounds {
    /// Per point: upper bound on the distance to its own centroid.
    upper: Vec<f64>,
    /// Per point: lower bound on the distance to every other centroid.
    lower: Vec<f64>,
    /// Per centroid: half the distance to its nearest other centroid.
    half_gap: Vec<f64>,
}

impl Bounds {
    /// Bounds that prove nothing, so the first step scans every point.
    fn new(points: usize, k: usize) -> Self {
        Bounds {
            upper: vec![f64::INFINITY; points],
            lower: vec![0.0; points],
            half_gap: vec![0.0; k],
        }
    }

    /// Labels every point with its nearest centroid, lowest index on
    /// ties, skipping the points whose bounds already settle it.
    fn assign(&mut self, data: &Dataset, centroids: &[Vec<f64>], assignments: &mut [usize]) {
        for (c, gap) in self.half_gap.iter_mut().enumerate() {
            let nearest = centroids
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != c)
                .map(|(_, other)| distance_sq(&centroids[c], other))
                .fold(f64::INFINITY, f64::min);
            *gap = 0.5 * nearest.sqrt();
        }
        for (i, row) in data.iter().enumerate() {
            let own = assignments[i];
            let bound = self.half_gap[own].max(self.lower[i]);
            if settled(self.upper[i], bound) {
                continue;
            }
            self.upper[i] = distance_sq(row, &centroids[own]).sqrt();
            if settled(self.upper[i], bound) {
                continue;
            }
            let (best, best_d2, second_d2) = nearest_two(row, centroids);
            assignments[i] = best;
            self.upper[i] = best_d2.sqrt();
            self.lower[i] = second_d2.sqrt();
        }
    }

    /// Forgets point `i`'s bounds; the empty-cluster repair relabeled it.
    fn forget(&mut self, i: usize) {
        self.upper[i] = f64::INFINITY;
        self.lower[i] = 0.0;
    }

    /// Loosens every bound by the centroid drift of one update step.
    fn advance(&mut self, drift: &[f64], assignments: &[usize]) {
        let mut top = (0usize, 0.0f64);
        let mut runner_up = 0.0f64;
        for (c, &d) in drift.iter().enumerate() {
            if d > top.1 {
                runner_up = top.1;
                top = (c, d);
            } else if d > runner_up {
                runner_up = d;
            }
        }
        for ((upper, lower), &own) in self.upper.iter_mut().zip(&mut self.lower).zip(assignments) {
            *upper += drift[own];
            *lower -= if own == top.0 { runner_up } else { top.1 };
        }
    }
}

/// `true` when `upper` is below `bound` by more than [`SLACK`]: the
/// point's own centroid is then strictly the nearest. Written as
/// `bound·(1 − s) − s` rather than `bound − s·(1 + bound)` so that an
/// infinite bound (k = 1) settles any finite `upper` instead of giving NaN.
fn settled(upper: f64, bound: f64) -> bool {
    upper < bound * (1.0 - SLACK) - SLACK
}

/// [`nearest_centroid`]'s answer plus the squared distance to the
/// nearest *other* centroid.
fn nearest_two(row: &[f64], centroids: &[Vec<f64>]) -> (usize, f64, f64) {
    let mut best = (0usize, f64::INFINITY);
    let mut second = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d2 = distance_sq(row, centroid);
        if d2 < best.1 {
            second = best.1;
            best = (c, d2);
        } else if d2 < second {
            second = d2;
        }
    }
    (best.0, best.1, second)
}

fn nearest_centroid(row: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d2 = distance_sq(row, centroid);
        if d2 < best.1 {
            best = (c, d2);
        }
    }
    best
}

fn farthest_point(data: &Dataset, centroids: &[Vec<f64>], assignments: &[usize]) -> usize {
    let mut best = (0usize, -1.0f64);
    for (i, row) in data.iter().enumerate() {
        let d2 = distance_sq(row, &centroids[assignments[i]]);
        if d2 > best.1 {
            best = (i, d2);
        }
    }
    best.0
}

/// A fitted K-means model: converged centroids plus training assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansModel {
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
    inertia: f64,
}

impl KMeansModel {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Converged centroids, indexed by cluster label.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Training-set labels, parallel to the fitted dataset's rows.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances from each training point to its centroid
    /// (the K-means objective).
    pub fn inertia(&self) -> f64 {
        self.inertia
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: plain Lloyd, every point against every centroid on
    /// every iteration, with the same seeding, update step, repair and
    /// final pass. Returns the model and how many repairs ran.
    fn plain_fit_once(km: &KMeans, data: &Dataset, rng: &mut StdRng) -> (KMeansModel, usize) {
        let dim = data.dim();
        let mut centroids = plus_plus_init(data, km.k, rng);
        let mut assignments = vec![0usize; data.len()];
        let mut repairs = 0;
        for _ in 0..km.max_iterations.max(1) {
            for (i, row) in data.iter().enumerate() {
                assignments[i] = nearest_centroid(row, &centroids).0;
            }
            let mut sums = vec![vec![0.0f64; dim]; km.k];
            let mut counts = vec![0usize; km.k];
            for (i, row) in data.iter().enumerate() {
                let c = assignments[i];
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(row) {
                    *s += v;
                }
            }
            for c in 0..km.k {
                if counts[c] == 0 {
                    let far = farthest_point(data, &centroids, &assignments);
                    sums[c] = data.row(far).to_vec();
                    counts[c] = 1;
                    assignments[far] = c;
                    repairs += 1;
                }
            }
            let mut movement = 0.0;
            for c in 0..km.k {
                let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
                movement += distance_sq(&new, &centroids[c]);
                centroids[c] = new;
            }
            if movement <= km.tolerance {
                break;
            }
        }
        let mut inertia = 0.0;
        for (i, row) in data.iter().enumerate() {
            let (c, d2) = nearest_centroid(row, &centroids);
            assignments[i] = c;
            inertia += d2;
        }
        (KMeansModel { centroids, assignments, inertia }, repairs)
    }

    type Bits = (Vec<Vec<u64>>, Vec<usize>, u64);

    fn bits(m: &KMeansModel) -> Bits {
        let centroids =
            m.centroids.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect();
        (centroids, m.assignments.clone(), m.inertia.to_bits())
    }

    /// Compares every restart of `km` on `data`, and the kept model,
    /// with the oracle bit for bit. Returns the oracle's repair count.
    fn compare_with_plain(km: &KMeans, data: &Dataset) -> Result<usize, String> {
        let mut repairs = 0;
        let mut best: Option<KMeansModel> = None;
        for r in 0..km.restarts {
            let seed = km.seed.wrapping_add(r as u64);
            let fast = km.fit_once(data, &mut StdRng::seed_from_u64(seed));
            let (plain, ran) = plain_fit_once(km, data, &mut StdRng::seed_from_u64(seed));
            if bits(&fast) != bits(&plain) {
                return Err(format!("restart {r}: {fast:?} != plain {plain:?}"));
            }
            repairs += ran;
            if best.as_ref().is_none_or(|b| plain.inertia < b.inertia) {
                best = Some(plain);
            }
        }
        let fit = km.fit(data).map_err(|e| e.to_string())?;
        match best {
            Some(plain) if bits(&fit) == bits(&plain) => Ok(repairs),
            _ => Err(format!("fit {fit:?} != plain {best:?}")),
        }
    }

    /// `(rows, k)` with `k` in `1..=n`. Grid rows sit on a half-unit
    /// lattice, so most are duplicates and many points are equidistant
    /// from two centroids, as in the trace's log-size features.
    fn instance() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
        (1usize..4, 1usize..40, any::<bool>()).prop_flat_map(|(dim, n, grid)| {
            let value =
                (-4.0f64..4.0).prop_map(move |v| if grid { (v * 2.0).round() / 2.0 } else { v });
            (prop::collection::vec(prop::collection::vec(value, dim), n), 1..=n)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bounded_fit_equals_plain_lloyd(
            (rows, k) in instance(),
            seed in 0u64..1000,
            iterations in 1usize..30,
        ) {
            let data = Dataset::from_rows(rows).unwrap();
            let km = KMeans::new(k).seed(seed).max_iterations(iterations);
            let outcome = compare_with_plain(&km, &data);
            prop_assert!(outcome.is_ok(), "{outcome:?}");
        }
    }

    /// The regime the period workloads fit in: 2-D rows on a half-unit
    /// lattice, k = 110, thousands of rows. The proptest above never
    /// draws more than 39 rows.
    #[test]
    fn bounded_fit_equals_plain_lloyd_at_large_k() {
        let mut rng = StdRng::seed_from_u64(2013);
        let rows: Vec<Vec<f64>> = (0..3000)
            .map(|_| (0..2).map(|_| (rng.gen_range(-8.0f64..8.0) * 2.0).round() / 2.0).collect())
            .collect();
        let data = Dataset::from_rows(rows).unwrap();
        compare_with_plain(&KMeans::new(110).seed(7), &data).unwrap();
    }

    #[test]
    fn empty_cluster_repair_matches_plain_lloyd() {
        // Three distinct rows under five clusters: k-means++ runs out of
        // distinct seeds, so duplicate centroids leave clusters empty,
        // and a negative tolerance keeps the loop repairing to the cap.
        let mut rows = vec![vec![0.0, 0.0]; 5];
        rows.extend(vec![vec![1.0, 0.0]; 3]);
        rows.extend(vec![vec![0.0, 2.0]; 2]);
        let data = Dataset::from_rows(rows).unwrap();
        let mut repairs = 0;
        for seed in 0..8 {
            let km = KMeans::new(5).seed(seed).tolerance(-1.0).max_iterations(6);
            repairs += compare_with_plain(&km, &data).unwrap();
        }
        assert!(repairs > 0, "the instance must exercise the repair");
    }

    #[test]
    fn equidistant_point_takes_the_lowest_index() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![0.0], vec![2.0]]).unwrap();
        // Exact ties both ways round, then near-ties inside the slack.
        for centroids in [
            vec![vec![0.0], vec![2.0]],
            vec![vec![2.0], vec![0.0]],
            vec![vec![0.0], vec![2.0 + 1e-12]],
            vec![vec![-1e-12], vec![2.0]],
        ] {
            let expected: Vec<usize> =
                data.iter().map(|r| nearest_centroid(r, &centroids).0).collect();
            let mut bounds = Bounds::new(data.len(), centroids.len());
            let mut labels = vec![1; data.len()];
            for _ in 0..3 {
                bounds.assign(&data, &centroids, &mut labels);
                assert_eq!(labels, expected, "centroids {centroids:?}");
                bounds.advance(&[0.0, 0.0], &labels);
            }
        }
        assert_eq!(nearest_centroid(&[1.0], &[vec![0.0], vec![2.0]]).0, 0);
        for seed in 0..16 {
            compare_with_plain(&KMeans::new(2).seed(seed), &data).unwrap();
        }
    }

    fn cluster_sizes(model: &KMeansModel) -> Vec<usize> {
        let mut sizes = vec![0usize; model.k()];
        for &a in model.assignments() {
            sizes[a] += 1;
        }
        sizes
    }

    fn blobs() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f64 * 0.01;
            rows.push(vec![0.0 + j, 0.0 + j]);
            rows.push(vec![10.0 + j, 10.0 + j]);
            rows.push(vec![0.0 + j, 10.0 + j]);
        }
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn recovers_three_blobs() {
        let data = blobs();
        let model = KMeans::new(3).seed(42).fit(&data).unwrap();
        let sizes = cluster_sizes(&model);
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        assert!(sizes.iter().all(|&s| s == 20), "balanced blobs: {sizes:?}");
        // Inertia is tiny relative to blob separation.
        assert!(model.inertia() < 1.0, "inertia = {}", model.inertia());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs();
        let a = KMeans::new(3).seed(7).fit(&data).unwrap();
        let b = KMeans::new(3).seed(7).fit(&data).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let model = KMeans::new(3).seed(0).fit(&data).unwrap();
        assert!(model.inertia() < 1e-12);
        let mut sizes = cluster_sizes(&model);
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 1]);
    }

    #[test]
    fn duplicate_points_do_not_break_seeding() {
        let data = Dataset::from_rows(vec![vec![5.0]; 10]).unwrap();
        let model = KMeans::new(3).seed(0).fit(&data).unwrap();
        assert_eq!(model.assignments().len(), 10);
        assert!(model.inertia() < 1e-12);
    }

    #[test]
    fn errors_on_bad_k() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(KMeans::new(0).fit(&data), Err(KMeansError::ZeroK)));
        assert!(matches!(
            KMeans::new(3).fit(&data),
            Err(KMeansError::TooFewPoints { k: 3, points: 2 })
        ));
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let data = blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let m = KMeans::new(k).seed(11).restarts(6).fit(&data).unwrap();
            assert!(m.inertia() <= prev + 1e-9, "k={k}: inertia {} > previous {prev}", m.inertia());
            prev = m.inertia();
        }
    }
}
